package explore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/history"
	"repro/internal/machine"
)

// Crash-boundary state dedup (DESIGN.md "Crash-boundary dedup"). The
// checker is stateless — volatile state (heap cells, thread
// continuations) is ordinary Go state it cannot enumerate — so the one
// point where a state's future is a function of observable data alone
// is the crash boundary: right after Machine.CrashReset, every thread
// is dead and all volatile state is gone by construction. Two
// executions whose crash boundaries agree on (durable device state,
// scenario-held crash-surviving state, recorded history, remaining
// crash budget, rand-policy call index) have identical suffix behavior,
// so once one prefix's recovery subtree is enumerated, other prefixes
// reaching the same boundary can be pruned.
//
// The table maps fingerprint -> hash of the owning choice prefix. The
// owner hash is what lets the claiming prefix revisit its own boundary
// on every re-execution while it enumerates the recovery subtree: same
// prefix, same owner, no prune. Fingerprints are 64-bit FNV-1a hashes,
// not full states — a hash collision could prune a distinct state
// (standard hash-compaction risk, vanishingly small at our table
// sizes); `-noreduce` and the self-check mode exist for exactly that
// doubt.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvBytes(h uint64, p []byte) uint64 {
	for _, c := range p {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func fnvInt(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// fpTable is a search's fingerprint table: each claimed boundary's
// fingerprint, mapped to the hash of the prefix that owns it.
type fpTable map[uint64]uint64

// claim records fp as owned by owner when unclaimed. It reports whether
// owner owns it now: true for the first claim and for revisits by the
// same owner, false when another prefix already owns the subtree.
func (t fpTable) claim(fp, owner uint64) bool {
	if t.ownedElsewhere(fp, owner) {
		return false
	}
	t[fp] = owner
	return true
}

// ownedElsewhere reports whether a prefix other than owner has claimed
// fp: what claim would refuse, without claiming.
func (t fpTable) ownedElsewhere(fp, owner uint64) bool {
	prev, ok := t[fp]
	return ok && prev != owner
}

// dedupRun carries the dedup context of one search's executions: the
// table, and the running execution's state that a boundary's
// fingerprint reads, which runOne fills in. A search without one runs
// no dedup (-noreduce, or no Fingerprint hook); replay, minimize and
// stress run none either.
type dedupRun struct {
	table fpTable
	s     *Scenario

	m           *machine.Machine
	w           any
	h           *Harness
	rpc         *randPolicyChooser
	crashesLeft int // in the running era, before its crash

	buf, tail []byte
	// hist encodes the execution's first histN events.
	hist  []byte
	histN int

	// err is set when the execution was cut at a checker error.
	err error
}

// appendEvent appends a canonical encoding of e: its kind and op ID,
// then the length-prefixed %v form of what the event adds — the
// operation at an Invoke, the response at a Return (whose operation the
// matching Invoke already fixed).
func appendEvent(b []byte, e history.Event) []byte {
	b = append(b, byte(e.Kind))
	if e.Kind == history.Crash {
		return b
	}
	b = machine.AppendUint64(b, uint64(e.ID))
	at := len(b)
	b = machine.AppendUint64(b, 0) // length, patched below
	if e.Kind == history.Invoke {
		b = fmt.Append(b, e.Op)
	} else {
		b = fmt.Append(b, e.Ret)
	}
	binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	return b
}

// appendTail appends the part of a crash boundary's state that no
// device holds: the budgets and counters the suffix depends on — the
// crashes left after this one and the rand policy's call number — and
// the whole history so far (pending operations included), over which
// refinement is judged, ending in the crash: its length, then its
// events. The step count is not among them: MaxSteps bounds each era
// alone, so nothing after a crash reads how many steps led to it. crash
// says the history still lacks the crash marker (the crash is being
// evaluated, not taken). An execution's history only grows, so its
// events are encoded once, into hist.
func (dd *dedupRun) appendTail(b []byte, crash bool) []byte {
	b = machine.AppendUint64(b, uint64(dd.crashesLeft-1))
	calls := 0
	if dd.rpc != nil {
		calls = dd.rpc.calls
	}
	b = machine.AppendUint64(b, uint64(calls))
	h := dd.h.rec.History()
	for _, e := range h[dd.histN:] {
		dd.hist = appendEvent(dd.hist, e)
	}
	dd.histN = len(h)
	n := len(h)
	if crash {
		n++
	}
	b = machine.AppendUint64(b, uint64(n))
	b = append(b, dd.hist...)
	if crash {
		b = append(b, byte(history.Crash))
	}
	return b
}

// fingerprint hashes the crash boundary's state as it is in place:
// first the tail, which seed is the hash of, then the devices' durable
// encodings and the scenario's crash-surviving state. The tail is the
// same for every crash state of a point, so a point hashes it once.
func (dd *dedupRun) fingerprint(seed uint64) uint64 {
	dd.buf = dd.s.Fingerprint(dd.w, dd.m.AppendDurable(dd.buf[:0]))
	return fnvBytes(seed, dd.buf)
}

// evaluate computes, in place, the boundary fingerprint of every crash
// state the crash option of the running "sched" draw reaches, one per
// vector of crash-time answers, and hands each to add. The history and
// counters are the same for all of them, so they are encoded once.
func (dd *dedupRun) evaluate(add func(fp uint64, answers []machine.CrashAnswer)) {
	dd.tail = dd.appendTail(dd.tail[:0], true)
	seed := fnvBytes(fnvOffset, dd.tail)
	dd.m.ProbeCrash(func(answers []machine.CrashAnswer) { add(dd.fingerprint(seed), answers) })
}

// errEvaluation marks the checker error confirmBoundary reports when a
// crash the search runs is not the crash state it evaluated in place
// and found live.
var errEvaluation = errors.New("crash state evaluated in place differs from the crash taken")

// confirmBoundary is called immediately after Machine.CrashReset. The
// DFS runs only crash states it evaluated in place and whose boundary no
// other prefix owned, so the boundary the crash reached must be the one
// evaluated for it, and claiming it for the running prefix must succeed
// (a first claim, or a revisit by the owner). Anything else is an error
// of the checker's, never a prune. The claim is made here, when the
// crash is run, so the table fills as the DFS reaches each boundary.
func (dd *dedupRun) confirmBoundary(d *dfsChooser) error {
	dd.tail = dd.appendTail(dd.tail[:0], false)
	fp := dd.fingerprint(fnvBytes(fnvOffset, dd.tail))
	want, ok := d.evaluated()
	switch {
	case !ok:
		return fmt.Errorf("%w: a crash reached boundary %016x with no state evaluated in place for it (was its point re-seated?)",
			errEvaluation, fp)
	case want != fp:
		return fmt.Errorf("%w: the crash at choice %d reached boundary %016x, evaluated as %016x (does a device's Save put back everything its Crash changes?)",
			errEvaluation, d.crashAt, fp, want)
	case !dd.table.claim(fp, d.owner(d.pos)):
		return fmt.Errorf("%w: the crash at choice %d reached boundary %016x, which another prefix owns",
			errEvaluation, d.crashAt, fp)
	}
	return nil
}

// Crash states evaluated in place (DESIGN.md "Crash-boundary dedup").
// At a "sched" draw that offers a crash, in the execution that runs the
// last thread option the DFS takes there before the crash (the fresh
// draw itself when it has one awake option or none), the chooser has
// the execution's dedupRun evaluate every crash state the crash option
// reaches, and keeps their fingerprints beside the point, in the order
// the DFS runs them. Nothing is claimed then. When the DFS takes the
// crash option, and each time it backtracks to one of its crash-time
// answers, it moves on to the next state whose boundary no other prefix
// owns — the lookup the replayed crash makes with claim at that very
// moment — and pushes that state's answers as the points the next
// execution replays, where confirmBoundary claims the boundary. Each
// state passed over is skipped without an execution and counted pruned;
// it is skipped, never removed, so choice indices keep their meaning.

// crashLeaf is one crash state of a point: the boundary fingerprint it
// reaches, and its crash-time answers, answers[lo:hi].
type crashLeaf struct {
	fp     uint64
	lo, hi int32
}

// crashStates is a dfsChooser's part of dedup. The leaves of a "sched"
// point lie in leaves[leafLo:leafHi] of its schedPoint, on a stack that
// grows and shrinks with the points, as the sleep sets' do.
type crashStates struct {
	dd      *dedupRun // evaluates; nil without dedup
	leaves  []crashLeaf
	answers []machine.CrashAnswer
	// crashAt is the "sched" point whose crash option ended the running
	// era, -1 when the latest draw ran a thread.
	crashAt int

	statesEvaluated, statesSkipped int
}

// evaluate evaluates the crash states of p, the point of a draw that
// offers a crash. When taken, this execution takes the crash at the
// fresh point, and evaluate picks the first live state for it; it
// reports false when there is none, so the draw has nothing left to
// run.
func (d *dfsChooser) evaluate(p *schedPoint, taken bool) bool {
	if d.dd == nil {
		return true
	}
	d.dd.evaluate(d.addLeaf)
	p.leafHi = int32(len(d.leaves))
	d.statesEvaluated += int(p.leafHi - p.leafLo)
	if !taken {
		return true
	}
	if p.cur = d.firstLive(p, fnvInt(d.owner(d.pos), uint64(p.nth))); p.cur < 0 {
		d.trimLeaves(p.leafLo)
		return false
	}
	return true
}

func (d *dfsChooser) addLeaf(fp uint64, answers []machine.CrashAnswer) {
	lo := int32(len(d.answers))
	d.answers = append(d.answers, answers...)
	d.leaves = append(d.leaves, crashLeaf{fp: fp, lo: lo, hi: int32(len(d.answers))})
}

// trimLeaves drops the leaves from index lo on, with their answers.
func (d *dfsChooser) trimLeaves(lo int32) {
	d.leaves = d.leaves[:lo]
	if lo == 0 {
		d.answers = d.answers[:0]
	} else {
		d.answers = d.answers[:d.leaves[lo-1].hi]
	}
}

// owner hashes the choices of the first n points: the owner of the
// boundary a crash reaches after them.
func (d *dfsChooser) owner(n int) uint64 {
	h := fnvOffset
	for _, p := range d.points[:n] {
		h = fnvInt(h, uint64(p.chosen))
	}
	return h
}

// live reports whether no prefix but l's own — owner, the hash of the
// choices up to its crash option, then its answers — owns l's boundary.
// A leaf that is not live is counted skipped.
func (d *dfsChooser) live(l crashLeaf, owner uint64) bool {
	for _, a := range d.answers[l.lo:l.hi] {
		owner = fnvInt(owner, uint64(a.Chosen))
	}
	if d.dd.table.ownedElsewhere(l.fp, owner) {
		d.statesSkipped++
		return false
	}
	return true
}

// pushAnswers appends l's answers from the from-th on as the points the
// next execution replays.
func (d *dfsChooser) pushAnswers(l crashLeaf, from int32) {
	for _, a := range d.answers[l.lo+from : l.hi] {
		d.points = append(d.points, choicePoint{n: a.N, chosen: a.Chosen, tag: a.Tag})
		d.placed(len(d.points) - 1)
	}
}

// enterCrash is next() taking the crash option of point i: under dedup
// the first live one of its crash states, which dueAfter saw evaluated,
// is run, and it reports false when there is none.
func (d *dfsChooser) enterCrash(i int) bool {
	s := d.sched(&d.points[i])
	if s == nil || d.points[i].chosen != s.nth || d.dd == nil {
		return true
	}
	if s.leafHi == s.leafLo {
		s.due = true // the next execution evaluates the point and takes its crash
		return true
	}
	if s.cur = d.firstLive(s, d.owner(i+1)); s.cur < 0 {
		return false
	}
	d.pushAnswers(d.leaves[s.cur], 0)
	return true
}

// firstLive returns the first of s's crash states that is live, -1 when
// none is; owner hashes the choices up to its crash option.
func (d *dfsChooser) firstLive(s *schedPoint, owner uint64) int32 {
	for k := s.leafLo; k < s.leafHi; k++ {
		if d.live(d.leaves[k], owner) {
			return k
		}
	}
	return -1
}

// dueAfter marks point i, whose option the DFS just advanced, for
// evaluation in the next execution when the crash is the next option it
// will take there, as far as it knows yet: its wakeup tree has no other
// branch. A branch race analysis adds later finds it evaluated.
func (d *dfsChooser) dueAfter(i int) {
	p := &d.points[i]
	s := d.sched(p)
	if d.dd == nil || s == nil || p.chosen >= s.nth || p.n == s.nth || len(s.wut) > 0 || s.leafHi > s.leafLo {
		return
	}
	s.due = true
}

// answerOf returns the point whose running crash state point i is a
// crash-time answer of, -1 when it is none.
func (d *dfsChooser) answerOf(i int) int {
	j := int(d.points[i].lastOn)
	if j < 0 || j == i {
		return -1
	}
	s := d.sched(&d.points[j])
	if s == nil || s.cur < 0 || d.points[j].chosen != s.nth {
		return -1
	}
	if l := d.leaves[s.cur]; i-j > int(l.hi-l.lo) {
		return -1
	}
	return j
}

// nextLeaf is next() at point i, the last crash-time answer of point
// j's running crash state: it runs the next of j's states, in DFS order,
// that is live, keeping the answers it shares with the state just run.
// It reports false, with the points cut back to j, when there is none.
func (d *dfsChooser) nextLeaf(j, i int) bool {
	s := d.sched(&d.points[j])
	cur := d.leaves[s.cur]
	owner := d.owner(j + 1)
	for k := s.cur + 1; k < s.leafHi; k++ {
		l := d.leaves[k]
		// f is the first answer where l departs from cur.
		f := int32(0)
		for f < cur.hi-cur.lo && f < l.hi-l.lo && d.answers[cur.lo+f].Chosen == d.answers[l.lo+f].Chosen {
			f++
		}
		at := j + 1 + int(f)
		if at > i || f == l.hi-l.lo {
			break // the points do not hold cur's answers: its crash said so
		}
		if !d.live(l, owner) {
			continue
		}
		d.points = d.points[:at+1]
		d.points[at].chosen = d.answers[l.lo+f].Chosen
		d.pushAnswers(l, f+1)
		s.cur, d.frontier = k, at
		return true
	}
	d.points = d.points[:j+1]
	return false
}

// evaluated returns the fingerprint evaluated in place for the crash
// that ended the running era; ok is false when it was not evaluated.
func (d *dfsChooser) evaluated() (fp uint64, ok bool) {
	if d.crashAt < 0 {
		return 0, false
	}
	s := d.sched(&d.points[d.crashAt])
	if s == nil || s.cur < 0 {
		return 0, false
	}
	return d.leaves[s.cur].fp, true
}
