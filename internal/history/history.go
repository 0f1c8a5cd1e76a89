// Package history records operation histories — invocations, responses,
// and crash markers — and checks them for concurrent recovery
// refinement (§3.1): every history must correspond to some interleaving
// of atomic specification transitions, where a crash (plus its recovery)
// simulates one atomic spec crash step, and operations that were in
// flight at a crash either take effect before the crash (recovery
// helping, §5.4) or never.
//
// For operations that completed, the spec step must allow the observed
// return value; for operations killed by a crash, any allowed return is
// acceptable (spec.Pending), since no caller observed one. This is
// exactly the linearizability notion of Herlihy & Wing extended with the
// paper's crash transitions.
package history

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/spec"
)

// OpID identifies one operation instance within a history.
type OpID int

// EventKind discriminates history events.
type EventKind int

const (
	// Invoke is an operation invocation by some thread.
	Invoke EventKind = iota
	// Return is an operation response with its return value.
	Return
	// Crash marks a machine crash (recovery runs after it; recovery's
	// internal steps are not history events, matching the paper's view of
	// crash+recovery as a single atomic spec crash step).
	Crash
)

func (k EventKind) String() string {
	switch k {
	case Invoke:
		return "invoke"
	case Return:
		return "return"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one history event.
type Event struct {
	Kind EventKind
	ID   OpID // Invoke and Return only
	Op   spec.Op
	Ret  spec.Ret // Return only
}

func (e Event) String() string {
	switch e.Kind {
	case Invoke:
		return fmt.Sprintf("invoke %d: %v", e.ID, e.Op)
	case Return:
		return fmt.Sprintf("return %d: %v -> %v", e.ID, e.Op, e.Ret)
	case Crash:
		return "crash"
	default:
		return "?"
	}
}

// History is a sequence of events ordered by real time.
type History []Event

// Format renders the history one event per line.
func (h History) Format() string {
	var b strings.Builder
	for i, e := range h {
		fmt.Fprintf(&b, "%3d  %s\n", i, e.String())
	}
	return b.String()
}

// Recorder accumulates a history. It is safe for concurrent use; under
// the modeled machine threads are serialized anyway, but benchmarks may
// record from real goroutines.
//
// The operations and return values handed to a Recorder are recorded,
// not copied, and must never be mutated afterwards: a counterexample
// keeps a shallow copy of its history, and a Checker's verdict memo
// keeps the shallow copies of the histories it has accepted.
type Recorder struct {
	mu     sync.Mutex
	events History
	ops    []spec.Op // by OpID: IDs are handed out densely from 0
}

// Invoke records an invocation and returns its fresh OpID.
func (r *Recorder) Invoke(op spec.Op) OpID {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := OpID(len(r.ops))
	r.ops = append(r.ops, op)
	r.events = append(r.events, Event{Kind: Invoke, ID: id, Op: op})
	return id
}

// Return records a response for a previously invoked operation.
func (r *Recorder) Return(id OpID, ret spec.Ret) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var op spec.Op
	if id >= 0 && int(id) < len(r.ops) {
		op = r.ops[id]
	}
	r.events = append(r.events, Event{Kind: Return, ID: id, Op: op, Ret: ret})
}

// Crash records a crash marker.
func (r *Recorder) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Kind: Crash})
}

// History returns the recorded history: the recorder's own slice, which
// callers must not mutate, and which the next Reset reuses — copy it to
// keep it.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// Reset clears the recorder for the next explored execution, keeping
// its buffers.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = r.events[:0]
	r.ops = r.ops[:0]
}

// Result reports the outcome of checking one history.
type Result struct {
	// OK is true when the history is a valid concurrent recovery
	// refinement of the spec (or vacuously true via UB).
	OK bool
	// UB is true when the spec declared some step undefined: the client
	// broke the contract, so the history is vacuously accepted.
	UB bool
	// Reason explains a failure (empty on success).
	Reason string
	// StatesExplored counts search-node visits, a measure of checking
	// work (with memoization each distinct state is visited once).
	StatesExplored int
}

// Check verifies that h refines sp. See the package comment for the
// judgment being checked.
func Check(sp spec.Interface, h History) Result {
	return CheckWith(sp, h, Options{})
}

// Options tunes the checker (for ablation studies; the defaults are
// what everything else uses).
type Options struct {
	// DisableMemo turns off memoization, within a check and across
	// checks: the search degrades to plain backtracking, and a reused
	// Checker judges every history afresh.
	DisableMemo bool
}

// CheckWith is Check with explicit checker options.
func CheckWith(sp spec.Interface, h History, opts Options) Result {
	var c Checker
	return c.search(sp, h, opts)
}

// Check verifies that h refines sp, reusing c's buffers. A history the
// Checker has accepted before against the same spec gets the stored
// Result back without a search (see verdictMemo).
func (c *Checker) Check(sp spec.Interface, h History, opts Options) Result {
	if opts.DisableMemo {
		return c.search(sp, h, opts)
	}
	c.verdicts.holdFor(sp)
	sum := historyHash(h)
	if res, ok := c.verdicts.lookup(sum, h); ok {
		c.reused++
		return res
	}
	res := c.search(sp, h, opts)
	if res.OK {
		c.verdicts.store(sum, h, res)
	}
	return res
}

// Reused is how many of c's checks the verdict memo answered.
func (c *Checker) Reused() int { return c.reused }

// search judges h against sp afresh.
func (c *Checker) search(sp spec.Interface, h History, opts Options) Result {
	if err := c.reset(sp, h); err != nil {
		return Result{Reason: "malformed history: " + err.Error()}
	}
	c.noMemo = opts.DisableMemo
	ok := c.dfs(0, sp.Init())
	res := Result{OK: ok || c.ub, UB: c.ub, StatesExplored: c.visits}
	if !res.OK {
		res.Reason = fmt.Sprintf(
			"no linearization found: search stuck before event %d (%s) in history:\n%s",
			c.best, eventAt(h, c.best), h.Format())
	}
	return res
}

func eventAt(h History, i int) string {
	if i >= 0 && i < len(h) {
		return h[i].String()
	}
	return "end"
}

type opInfo struct {
	id     OpID
	invoke int
	ret    int // -1 if never returned
	retVal spec.Ret
	op     spec.Op
	dies   int // index of crash that kills it, or len(h) if none
}

// Checker is the search state of a refinement check, kept from one
// check to the next by whoever checks many histories (a search worker
// checks every execution it runs): the memo map is cleared rather than
// reallocated, and the op index, bitsets and key scratch keep their
// capacity. The operations sit in an OpID-ordered slice and the set of
// operations that have taken their atomic effect but not yet returned
// is a bitset over that slice, mutated in place and undone on
// backtrack, so a search node allocates nothing but its memo entry. It
// also keeps the verdicts of the histories it accepted (verdictMemo),
// so a spec must not change while a Checker checks against it. The
// zero value is ready to use; a Checker is not safe for concurrent use.
type Checker struct {
	sp  spec.Interface
	h   History
	ops []opInfo // ordered by OpID
	// opAt[i] is the ops index of the Return event h[i].
	opAt []int
	// lin has bit k set while ops[k] is linearized and not yet returned.
	// A history of any length gets the words it needs.
	lin []uint64
	// saved stacks the lin words a Crash event cleared, for backtracking.
	saved []uint64

	memo   map[string]bool
	key    []byte // scratch for memo keys
	noMemo bool
	visits int
	ub     bool
	best   int // deepest event index reached, for diagnostics

	verdicts verdictMemo
	reused   int // checks the verdict memo answered
}

// maxVerdicts caps a verdict memo: once it holds this many histories,
// new verdicts are no longer stored. A suite entry meets at most a few
// dozen distinct histories, the complete prefix-contract search 189.
const maxVerdicts = 4096

// verdictMemo holds the Results of the histories a Checker accepted,
// for the one spec they were judged against: a search meets a handful
// of distinct histories in thousands of executions. The judgment is a
// function of the spec and the history's events, compared as Kind, ID,
// and Op and Ret by spec.Equal — what the spec steps compare return
// values by — so a history equal to a stored one, event by event, gets
// the stored Result, StatesExplored included. The hash only picks a
// bucket; a hit is exact equality. A stored history is a shallow copy,
// sound because recorded operations and returns are never mutated (see
// Recorder). Rejections are not stored: they end a search, and their
// Reason prints the history they were found in.
type verdictMemo struct {
	sp spec.Interface
	// newest maps a hash to 1 + the index of the newest verdict with it;
	// a verdict's next chains to the one before.
	newest  map[uint64]int
	stored  []verdict
	history History // the stored histories, back to back
}

type verdict struct {
	h    History
	res  Result
	next int
}

// holdFor makes m the memo of sp, emptying it when it held another
// spec's verdicts: one unequal by spec.Equal, which for a TSL spec is
// another pointer.
func (m *verdictMemo) holdFor(sp spec.Interface) {
	if !spec.Equal(m.sp, sp) {
		if m.newest == nil {
			m.newest = map[uint64]int{}
		}
		clear(m.newest)
		clear(m.stored)
		clear(m.history)
		m.sp, m.stored, m.history = sp, m.stored[:0], m.history[:0]
	}
}

func (m *verdictMemo) lookup(sum uint64, h History) (Result, bool) {
	for i := m.newest[sum]; i > 0; i = m.stored[i-1].next {
		if v := &m.stored[i-1]; sameHistory(v.h, h) {
			return v.res, true
		}
	}
	return Result{}, false
}

// store keeps res for h, unless m is full. The histories are appended
// to one buffer, so a verdict costs no allocation of its own: a stored
// history is a window that a later append never writes into.
func (m *verdictMemo) store(sum uint64, h History, res Result) {
	if len(m.stored) == maxVerdicts {
		return
	}
	at := len(m.history)
	m.history = append(m.history, h...)
	m.stored = append(m.stored, verdict{h: m.history[at:len(m.history):len(m.history)], res: res, next: m.newest[sum]})
	m.newest[sum] = len(m.stored)
}

// historyHash hashes each event's kind, op ID and scalar return value.
func historyHash(h History) uint64 {
	const prime = 1099511628211
	x := uint64(len(h))
	mix := func(v uint64) { x = (x ^ v) * prime }
	for _, e := range h {
		mix(uint64(e.Kind)<<32 ^ uint64(e.ID))
		switch r := e.Ret.(type) {
		case bool:
			if r {
				mix(1)
			}
		case int:
			mix(uint64(r))
		case uint64:
			mix(r)
		case string:
			mix(uint64(len(r)))
		}
	}
	return x
}

func sameHistory(a, b History) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].ID != b[i].ID ||
			!spec.Equal(a[i].Op, b[i].Op) || !spec.Equal(a[i].Ret, b[i].Ret) {
			return false
		}
	}
	return true
}

// reset indexes h for a check against sp, rejecting structurally broken
// histories so the search can assume well-formedness: every Return
// matches exactly one earlier Invoke with no Crash in between, and IDs
// are not reused.
func (c *Checker) reset(sp spec.Interface, h History) error {
	if c.memo == nil {
		c.memo = map[string]bool{}
	}
	clear(c.memo)
	c.sp, c.h = sp, h
	c.ops, c.saved = c.ops[:0], c.saved[:0]
	c.opAt = slices.Grow(c.opAt[:0], len(h))[:len(h)]
	c.noMemo, c.visits, c.ub, c.best = false, 0, false, 0
	for i, e := range h {
		if e.Kind == Invoke {
			c.ops = append(c.ops, opInfo{id: e.ID, invoke: i, ret: -1, op: e.Op, dies: len(h)})
		}
	}
	// A Recorder hands out IDs in invocation order; only hand-built
	// histories need the sort.
	byID := func(a, b opInfo) int { return cmp.Compare(a.id, b.id) }
	if !slices.IsSortedFunc(c.ops, byID) {
		slices.SortFunc(c.ops, byID)
	}
	for k := 1; k < len(c.ops); k++ {
		if c.ops[k].id == c.ops[k-1].id {
			return fmt.Errorf("op %d invoked twice", c.ops[k].id)
		}
	}
	lastCrash := -1
	for i, e := range h {
		switch e.Kind {
		case Crash:
			lastCrash = i
		case Return:
			k, found := slices.BinarySearchFunc(c.ops, e.ID, func(o opInfo, id OpID) int { return cmp.Compare(o.id, id) })
			if !found || c.ops[k].invoke > i {
				return fmt.Errorf("op %d returns without invocation", e.ID)
			}
			info := &c.ops[k]
			if info.ret != -1 {
				return fmt.Errorf("op %d returns twice", e.ID)
			}
			if lastCrash > info.invoke {
				return fmt.Errorf("op %d returns after a crash killed it (invoked at %d, crash at %d)", e.ID, info.invoke, lastCrash)
			}
			info.ret, info.retVal = i, e.Ret
			c.opAt[i] = k
		}
	}
	// An op with no response dies at the first crash after its invocation.
	for k := range c.ops {
		info := &c.ops[k]
		if info.ret != -1 {
			continue
		}
		for i := info.invoke + 1; i < len(h); i++ {
			if h[i].Kind == Crash {
				info.dies = i
				break
			}
		}
	}
	c.lin = slices.Grow(c.lin[:0], (len(c.ops)+63)/64)[:(len(c.ops)+63)/64]
	clear(c.lin)
	return nil
}

func (c *Checker) linearized(k int) bool { return c.lin[k/64]&(1<<(k%64)) != 0 }
func (c *Checker) setLin(k int)          { c.lin[k/64] |= 1 << (k % 64) }
func (c *Checker) clearLin(k int)        { c.lin[k/64] &^= 1 << (k % 64) }

// linearizable reports whether ops[k] may take its atomic effect at
// position i: invoked before i, not yet returned, not yet linearized,
// and not killed by a crash before i.
func (c *Checker) linearizable(k, i int) bool {
	info := &c.ops[k]
	return !c.linearized(k) && info.invoke < i && (info.ret == -1 || info.ret >= i) && info.dies >= i
}

// stepRet is the return value ops[k]'s spec step must allow: the
// observed one, or spec.Pending when no caller saw a response. helped
// says which.
func (c *Checker) stepRet(k int) (ret spec.Ret, helped bool) {
	if info := &c.ops[k]; info.ret != -1 {
		return info.retVal, false
	}
	return spec.Pending, true
}

// crash clears lin for the events after a Crash (the ops in it took
// effect and are dead) and returns the mark to hand to uncrash.
func (c *Checker) crash() int {
	mark := len(c.saved)
	c.saved = append(c.saved, c.lin...)
	clear(c.lin)
	return mark
}

func (c *Checker) uncrash(mark int) {
	copy(c.lin, c.saved[mark:])
	c.saved = c.saved[:mark]
}

// memoKey encodes the search state (i, lin, st) into the scratch buffer.
func (c *Checker) memoKey(i int, st spec.State) []byte {
	b := binary.LittleEndian.AppendUint32(c.key[:0], uint32(i))
	for _, w := range c.lin {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	b = append(b, c.sp.Key(st)...)
	c.key = b
	return b
}

func (c *Checker) dfs(i int, st spec.State) bool {
	if c.ub {
		return true
	}
	if i > c.best {
		c.best = i
	}
	if i == len(c.h) {
		return true
	}
	c.visits++
	var k string
	if !c.noMemo {
		b := c.memoKey(i, st)
		if seen, ok := c.memo[string(b)]; ok {
			return seen
		}
		k = string(b)
		c.memo[k] = false // cycle guard; overwritten on success
	}

	ok := false
	switch e := c.h[i]; e.Kind {
	case Invoke:
		ok = c.dfs(i+1, st)
	case Return:
		if op := c.opAt[i]; c.linearized(op) {
			c.clearLin(op)
			ok = c.dfs(i+1, st)
			c.setLin(op)
		}
	case Crash:
		// All unreturned, unlinearized ops die here; linearized ones have
		// taken effect (helping). The spec takes its crash step, to any
		// state it allows.
		mark := c.crash()
		for _, next := range c.sp.Crash(st) {
			ok = ok || c.dfs(i+1, next)
		}
		c.uncrash(mark)
	}

	// Otherwise try linearizing some pending op now (before advancing).
	for op := 0; op < len(c.ops) && !ok; op++ {
		if !c.linearizable(op, i) {
			continue
		}
		ret, _ := c.stepRet(op)
		nexts, ub := c.sp.Step(st, c.ops[op].op, ret)
		if ub {
			c.ub = true
			ok = true
			break
		}
		c.setLin(op)
		for _, ns := range nexts {
			if c.dfs(i, ns) {
				ok = true
				break
			}
		}
		c.clearLin(op)
	}

	if ok && !c.noMemo {
		c.memo[k] = true
	}
	return ok
}
