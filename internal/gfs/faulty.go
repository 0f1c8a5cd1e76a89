package gfs

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/trace"
)

// FaultOp enumerates the operation classes Faulty can inject transient
// faults into — the taxonomy of the ISSUE's fault model: failed
// creates/links/deletes/appends (EIO/ENOSPC-style), short reads, and
// failed fsyncs. Open/Close/Size/List are deliberately not faultable:
// their failures are either already modeled (absent files) or not
// transient in any interesting way.
type FaultOp int

const (
	// FaultCreate fails a Create (the file is not created).
	FaultCreate FaultOp = iota
	// FaultAppend fails an Append (no data is appended).
	FaultAppend
	// FaultReadShort truncates a ReadAt's result (at least one byte is
	// still returned when the underlying read returned any, so a short
	// read is never confused with end-of-file — POSIX read semantics).
	FaultReadShort
	// FaultSync fails a Sync (the data must not be treated as durable).
	FaultSync
	// FaultDelete fails a Delete (the entry remains).
	FaultDelete
	// FaultLink fails a Link (the new entry is not created).
	FaultLink
	// FaultCorrupt is the silent-corruption class: an injection durably
	// mangles one file's bytes in place (a bit flip or a truncation) via
	// the backend's Corrupter interface, and the triggering operation
	// then proceeds normally — nothing fails, which is exactly what makes
	// the fault "silent". The mutation edits durable state, not the
	// in-flight call, so it survives crashes until something rewrites the
	// file. The decision point is Open: each open of a file is one chance
	// for its bytes to have rotted. Like FaultFailStop it is opted into
	// explicitly (UniformRates leaves it at 0, nil-Eligible chooser
	// policies skip it): undetected corruption violates the strict
	// storage model, so only scenarios with an integrity layer
	// (Checksummed) should enable it.
	FaultCorrupt
	// FaultFailStop is the permanent fail-stop class: once injected, the
	// wrapped backend is dead — every subsequent operation fails without
	// touching it, reads and listings included, until Revive. It models
	// a replica (disk) failing permanently, the failure mode of the
	// paper's replicated disk (Figure 1), as opposed to the six
	// transient classes above. UniformRates deliberately leaves its rate
	// at 0: permanent death must be opted into explicitly.
	FaultFailStop
	// FaultNoSpace is the disk-full class: a *durable* latch like
	// FaultFailStop, but scoped to space — once injected, every write
	// that consumes space (Create, Append, Link) fails ENOSPC-style
	// without touching the inner backend, while reads, listings, opens
	// and deletes keep working. The latch clears when space is freed: a
	// successful Delete through this layer, or the operator surface
	// (FreeSpace). Like the other durable class it is opted into
	// explicitly (UniformRates leaves it at 0, nil-Eligible chooser
	// policies skip it) and enumerated under its own "nospace" tag.
	FaultNoSpace
	// FaultNoFiles is the fd-exhaustion class: Open and Create fail
	// transiently (EMFILE/ENFILE-style — the table was full *right then*),
	// with no durable effect. Opt-in like the other post-v1 classes so
	// existing seeded schedules and scenario spaces stay byte-stable.
	FaultNoFiles
	// NumFaultOps is the number of fault classes.
	NumFaultOps
)

// String names the fault class.
func (op FaultOp) String() string {
	switch op {
	case FaultCreate:
		return "create"
	case FaultAppend:
		return "append"
	case FaultReadShort:
		return "read-short"
	case FaultSync:
		return "sync"
	case FaultDelete:
		return "delete"
	case FaultLink:
		return "link"
	case FaultCorrupt:
		return "corrupt"
	case FaultFailStop:
		return "fail-stop"
	case FaultNoSpace:
		return "no-space"
	case FaultNoFiles:
		return "no-files"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(op))
	}
}

// CorruptMode selects how CorruptFile mangles the target file.
type CorruptMode int

const (
	// CorruptFlip flips the low bit of the file's middle byte.
	CorruptFlip CorruptMode = iota
	// CorruptTruncate silently drops the file's last byte.
	CorruptTruncate
	// NumCorruptModes is the number of corruption modes.
	NumCorruptModes
)

// String names the corruption mode.
func (m CorruptMode) String() string {
	switch m {
	case CorruptFlip:
		return "bit-flip"
	case CorruptTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("CorruptMode(%d)", int(m))
	}
}

// Corrupter is implemented by backends whose durable bytes FaultCorrupt
// can mangle in place (Model and OS). CorruptFile mutates the named
// file's stored bytes according to mode and reports whether anything
// was actually mutated (absent and empty files have nothing to rot).
// The mutation is durable — it edits the backing store, not any open
// descriptor — and silent: no subsequent operation fails until an
// integrity layer checks the bytes.
type Corrupter interface {
	CorruptFile(t T, dir, name string, mode CorruptMode) bool
}

// AsCorrupter finds the stack's Corrupter; nil if it bottoms out
// without one.
func AsCorrupter(sys System) Corrupter { return asLayer[Corrupter](sys) }

// FaultEvent is one injected fault, recorded in the replayable log.
// Index is the per-class invocation counter at injection time, so an
// event identifies exactly which call faulted regardless of how calls
// of different classes interleaved.
type FaultEvent struct {
	Op     FaultOp
	Index  uint64
	Detail string
}

// String renders the event for logs and debugging.
func (e FaultEvent) String() string {
	return fmt.Sprintf("%s#%d %s", e.Op, e.Index, e.Detail)
}

// Policy decides, for the index-th invocation of an operation class,
// whether to inject a fault. Implementations must be safe for
// concurrent use when the wrapped backend is.
type Policy interface {
	Decide(t T, op FaultOp, index uint64) bool
}

// splitmix64 is the SplitMix64 mixer — a deterministic, well-scrambled
// hash used so fault decisions are a pure function of (seed, class,
// index) and therefore independent of goroutine interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SeededPolicy injects faults deterministically from a seed: the
// index-th call of class op faults iff a hash of (Seed, op, index)
// lands in the 1-in-Rates[op] window. Decisions are pure functions of
// the seed, so the same seed reproduces the same fault schedule —
// bit-for-bit — on every run, which is what makes production fault
// drills replayable.
type SeededPolicy struct {
	// Seed selects the schedule.
	Seed int64
	// Rates[op] = N means roughly 1 in N calls of that class fault;
	// 0 disables the class.
	Rates [NumFaultOps]uint64

	// MaxFaults, when nonzero, caps the total number of injected
	// faults. The cap is a global counter, so with concurrent callers
	// *which* calls land under the cap can vary — use 0 (unlimited) when
	// bit-for-bit log reproducibility matters.
	MaxFaults uint64

	// MaxPerClass, when nonzero for a class, caps that class's injected
	// faults independently of MaxFaults (same concurrency caveat). The
	// natural use is bounding FaultFailStop to a single replica death
	// while transient classes keep firing.
	MaxPerClass [NumFaultOps]uint64

	mu       sync.Mutex
	injected uint64
	perClass [NumFaultOps]uint64
}

// optInClass reports whether a fault class must be opted into
// explicitly — nil-Eligible chooser policies, nil-Ops AlwaysPolicy and
// UniformRates all skip these. The durable latches (fail-stop,
// no-space), silent corruption, and fd exhaustion change what a
// scenario is *about*; a uniform transient drill should degrade the
// store, not kill it, fill it, or rot its bytes.
func optInClass(op FaultOp) bool {
	return op == FaultFailStop || op == FaultCorrupt || op == FaultNoSpace || op == FaultNoFiles
}

// UniformRates returns a Rates array failing every transient class 1 in
// n calls. FaultFailStop, FaultCorrupt, FaultNoSpace and FaultNoFiles
// stay at 0: the opt-in classes (see optInClass) are enabled per class,
// never implied.
func UniformRates(n uint64) [NumFaultOps]uint64 {
	var r [NumFaultOps]uint64
	for op := FaultOp(0); op < NumFaultOps; op++ {
		if !optInClass(op) {
			r[op] = n
		}
	}
	return r
}

// Decide implements Policy.
func (p *SeededPolicy) Decide(_ T, op FaultOp, index uint64) bool {
	rate := p.Rates[op]
	if rate == 0 {
		return false
	}
	h := splitmix64(uint64(p.Seed) ^ splitmix64(uint64(op)+1) ^ splitmix64(index))
	if h%rate != 0 {
		return false
	}
	if p.MaxFaults > 0 || p.MaxPerClass[op] > 0 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.MaxFaults > 0 && p.injected >= p.MaxFaults {
			return false
		}
		if p.MaxPerClass[op] > 0 && p.perClass[op] >= p.MaxPerClass[op] {
			return false
		}
		p.injected++
		p.perClass[op]++
	}
	return true
}

// ChooserPolicy resolves fault decisions through the modeled machine's
// Chooser (tag "fault" for transient classes, "failstop" for permanent
// replica death, "corrupt" for silent corruption), so the model checker
// enumerates faults exactly like it enumerates schedules and crash
// points. Budget bounds the injected faults per execution: once spent,
// no further choices are consumed, keeping the DFS space finite even
// though the implementation retries faulted operations. Eligible, when
// non-nil, restricts which classes branch; nil means all *transient*
// classes — FaultFailStop and FaultCorrupt only branch when listed
// explicitly, consistent with UniformRates: permanent death and silent
// rot are opted into, never implied. PerClass, when non-nil,
// caps individual classes within the overall Budget — e.g. at most one
// FaultFailStop so the search covers "one replica dies" without ever
// killing both.
//
// A ChooserPolicy is per-execution state; build a fresh one in the
// scenario's Setup. Sharing one instance between the Faulty layers of
// two mirror replicas makes the budgets span both replicas, which is
// how a scenario says "at most one replica death total".
type ChooserPolicy struct {
	Budget   int
	Eligible map[FaultOp]bool
	PerClass map[FaultOp]int
	used     int
	perClass [NumFaultOps]int
}

// Classes returns the set of the listed fault classes, for
// ChooserPolicy.Eligible; nil (every transient class) when none is
// listed. Nothing writes to a set once built, so one may be shared by
// the policies of many executions.
func Classes(ops ...FaultOp) map[FaultOp]bool {
	if ops == nil {
		return nil
	}
	set := make(map[FaultOp]bool, len(ops))
	for _, op := range ops {
		set[op] = true
	}
	return set
}

// Decide implements Policy. With a non-model thread it never faults.
func (p *ChooserPolicy) Decide(t T, op FaultOp, index uint64) bool {
	mt, ok := t.(*machine.T)
	if !ok || p.used >= p.Budget {
		return false
	}
	if p.Eligible == nil {
		if optInClass(op) {
			return false
		}
	} else if !p.Eligible[op] {
		return false
	}
	if p.PerClass != nil {
		if cap, capped := p.PerClass[op]; capped && p.perClass[op] >= cap {
			return false
		}
	}
	tag := "fault"
	switch op {
	case FaultFailStop:
		tag = "failstop"
	case FaultCorrupt:
		tag = "corrupt"
	case FaultNoSpace:
		tag = "nospace"
	}
	if mt.Choose(2, tag) == 1 {
		p.used++
		p.perClass[op]++
		return true
	}
	return false
}

// NeverPolicy injects nothing; Faulty wrapped with it is behaviorally
// identical to its inner backend (useful for differential tests).
type NeverPolicy struct{}

// Decide implements Policy.
func (NeverPolicy) Decide(T, FaultOp, uint64) bool { return false }

// AlwaysPolicy faults every eligible call of the classes in Ops (all
// *transient* classes when Ops is nil — the opt-in classes, as
// everywhere, must be listed explicitly) — for tests exercising retry
// exhaustion.
type AlwaysPolicy struct{ Ops map[FaultOp]bool }

// Decide implements Policy.
func (p AlwaysPolicy) Decide(_ T, op FaultOp, _ uint64) bool {
	if p.Ops == nil {
		return !optInClass(op)
	}
	return p.Ops[op]
}

// Faulty is a fault-injecting System middleware: it wraps either
// backend (Model or OS) and, per operation, asks its Policy whether to
// inject a transient fault. A fault means the operation fails *without
// touching the inner backend* (except short reads, which truncate the
// inner result), so the fault semantics are exactly "the syscall
// returned an error and had no effect" — the strongest transient-fault
// model the POSIX API admits. Per-class invocation and fault counters
// plus a replayable fault log make any seeded failure reproducible.
type Faulty struct {
	inner  System
	policy Policy

	// Metrics, when non-nil, counts injected faults per class into the
	// shared file-system metrics (gfs_faults_injected_total). The
	// replayable log above stays authoritative for drills; the counters
	// exist for scraping.
	Metrics *FSMetrics

	mu     sync.Mutex
	calls  [NumFaultOps]uint64
	faults [NumFaultOps]uint64
	log    []FaultEvent

	// failStopped is the permanent-death latch: once set (by the policy
	// injecting FaultFailStop, or by FailStopNow), every operation fails
	// without reaching the inner backend until Revive. calls[FaultFailStop]
	// counts fail-stop *decision points* — operations that consulted the
	// policy while alive — so seeded fail-stop schedules are a pure
	// function of (seed, index) exactly like the transient classes.
	failStopped bool

	// noSpace is the disk-full latch: once set (by the policy injecting
	// FaultNoSpace, or by NoSpaceNow), every space-consuming write
	// (Create, Append, Link) fails without reaching the inner backend
	// until space is freed — a successful Delete through this layer, or
	// FreeSpace. While latched, writes do NOT consult the policy: like
	// the fail-stop latch, a durable class charges the budget once at
	// injection and never again, so a latch surviving a crash is not
	// double-counted on replay.
	noSpace bool
}

// NewFaulty wraps inner with the given fault policy.
func NewFaulty(inner System, policy Policy) *Faulty {
	return &Faulty{inner: inner, policy: policy}
}

// Inner returns the wrapped backend (e.g. to reach Model.PeekDir or
// OS.CloseAll through the middleware).
func (f *Faulty) Inner() System { return f.inner }

// Counters returns per-class (invocations, injected faults).
func (f *Faulty) Counters() (calls, faults [NumFaultOps]uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.faults
}

// Log returns a copy of the fault log in injection order.
func (f *Faulty) Log() []FaultEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FaultEvent{}, f.log...)
}

// ResetLog clears the log and counters (e.g. between soak rounds).
func (f *Faulty) ResetLog() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = nil
	f.calls = [NumFaultOps]uint64{}
	f.faults = [NumFaultOps]uint64{}
}

// FailStopped reports whether the backend is latched dead. Mirrored
// uses it (via the FailStopper interface) to tell "replica died" apart
// from ordinary operation failures.
func (f *Faulty) FailStopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failStopped
}

// FailStopNow latches the backend dead immediately, bypassing the
// policy — the operational kill switch (drills, soak tests, demos).
// It records a fail-stop event like a policy-injected death.
func (f *Faulty) FailStopNow(detail string) {
	f.mu.Lock()
	already := f.failStopped
	f.failStopped = true
	if !already {
		f.faults[FaultFailStop]++
		f.log = append(f.log, FaultEvent{Op: FaultFailStop, Index: f.calls[FaultFailStop], Detail: detail})
	}
	f.mu.Unlock()
	if !already {
		f.Metrics.FaultInjected(FaultFailStop)
	}
}

// Revive clears the fail-stop latch: the inner backend is reachable
// again, with whatever (possibly stale) state it holds. This models
// plugging in a replacement disk — Mirrored.ReplaceReplica revives the
// layer and resilvering makes the state trustworthy. Revive does not
// refund any policy budget: a ChooserPolicy that killed once stays
// spent, which is what bounds checker scenarios to one death.
func (f *Faulty) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failStopped = false
}

// NoSpace reports whether the backend is latched full. mailboat uses it
// (via an interface assertion, like FailStopped) to fail fast instead
// of burning its retry budget against a full disk, and the shed policy
// uses it as its modeled-space signal.
func (f *Faulty) NoSpace() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.noSpace
}

// NoSpaceNow latches the backend full immediately, bypassing the
// policy — the operational fill switch for drills and soak tests. It
// records a no-space event like a policy-injected fill.
func (f *Faulty) NoSpaceNow(detail string) {
	f.mu.Lock()
	already := f.noSpace
	f.noSpace = true
	if !already {
		f.faults[FaultNoSpace]++
		f.log = append(f.log, FaultEvent{Op: FaultNoSpace, Index: f.calls[FaultNoSpace], Detail: detail})
	}
	f.mu.Unlock()
	if !already {
		f.Metrics.FaultInjected(FaultNoSpace)
	}
}

// FreeSpace clears the no-space latch without a delete — the operator
// freed space elsewhere. Like Revive it refunds no policy budget: a
// ChooserPolicy that filled the disk once stays spent, which is what
// bounds checker scenarios to one fill.
func (f *Faulty) FreeSpace() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noSpace = false
}

// spaceFreed clears the latch after an operation that released space
// (a successful Delete): the disk is no longer full. Deterministic —
// no choice point — so it costs the checker nothing.
func (f *Faulty) spaceFreed() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noSpace = false
}

// describe renders the detail a FaultEvent and the trace lines carry.
// The gates call it only once the policy has decided to inject, so a
// call that does not fault costs its counters and one Decide — no
// string is built for it.
type describe func() string

// noSpaceGate is the per-write disk-full gate, consulted by the
// space-consuming operations (Create, Append, Link) after the
// fail-stop gate. It reports true when the write must fail
// ENOSPC-style: either the latch is already set (no policy consult, no
// index allocated — see the noSpace field's double-count note), or
// this write is the policy-chosen moment the disk fills. Each unlatched
// write is one decision point with its own index, so seeded schedules
// replay and the checker enumerates "the disk fills at write i" for
// every i under the "nospace" tag.
func (f *Faulty) noSpaceGate(t T, what describe) bool {
	f.mu.Lock()
	if f.noSpace {
		f.mu.Unlock()
		if mt, ok := t.(*machine.T); ok {
			mt.Step("fs.enospc")
		}
		return true
	}
	idx := f.calls[FaultNoSpace]
	f.calls[FaultNoSpace]++
	f.mu.Unlock()

	if !f.policy.Decide(t, FaultNoSpace, idx) {
		return false
	}
	detail := what()
	if mt, ok := t.(*machine.T); ok {
		mt.Step("fs.nospace")
		mt.Tracef("fs.nospace #%d %s", idx, detail)
	}
	f.mu.Lock()
	f.noSpace = true
	f.faults[FaultNoSpace]++
	f.log = append(f.log, FaultEvent{Op: FaultNoSpace, Index: idx, Detail: detail})
	f.mu.Unlock()
	f.Metrics.FaultInjected(FaultNoSpace)
	trace.Event(t, "fault injected: %s %s", FaultNoSpace, detail)
	return true
}

// failStop is the per-operation fail-stop gate, consulted by every
// operation before anything else (including the classes that are never
// transiently faulted — a dead disk fails reads, listings and stats
// too). It reports true when the operation must fail: either the latch
// is already set, or this operation is the policy-chosen point of
// death. Each alive call is one decision point with its own index, so
// seeded schedules replay and the model checker enumerates "the replica
// dies at step i" for every i.
func (f *Faulty) failStop(t T, what describe) bool {
	f.mu.Lock()
	if f.failStopped {
		f.mu.Unlock()
		if mt, ok := t.(*machine.T); ok {
			mt.Step("fs.dead")
		}
		return true
	}
	idx := f.calls[FaultFailStop]
	f.calls[FaultFailStop]++
	f.mu.Unlock()

	if !f.policy.Decide(t, FaultFailStop, idx) {
		return false
	}
	detail := what()
	if mt, ok := t.(*machine.T); ok {
		mt.Step("fs.failstop")
		mt.Tracef("fs.failstop #%d %s", idx, detail)
	}
	f.mu.Lock()
	f.failStopped = true
	f.faults[FaultFailStop]++
	f.log = append(f.log, FaultEvent{Op: FaultFailStop, Index: idx, Detail: detail})
	f.mu.Unlock()
	f.Metrics.FaultInjected(FaultFailStop)
	return true
}

// begin counts the call and decides the fault. On injection it records
// the event and, under the model, makes the failed operation one atomic
// step (like a real faulted syscall).
func (f *Faulty) begin(t T, op FaultOp, what describe) bool {
	f.mu.Lock()
	idx := f.calls[op]
	f.calls[op]++
	f.mu.Unlock()

	if !f.policy.Decide(t, op, idx) {
		return false
	}
	detail := what()
	if mt, ok := t.(*machine.T); ok {
		mt.Step("fs.fault")
		mt.Tracef("fs.fault %s#%d %s", op, idx, detail)
	}
	f.mu.Lock()
	f.faults[op]++
	f.log = append(f.log, FaultEvent{Op: op, Index: idx, Detail: detail})
	f.mu.Unlock()
	f.Metrics.FaultInjected(op)
	trace.Event(t, "fault injected: %s %s", op, detail)
	return true
}

// NewLock implements System (never faulted: locks are volatile memory).
func (f *Faulty) NewLock(t T, name string) Lock { return f.inner.NewLock(t, name) }

// Create implements System. It passes three fault gates: the fail-stop
// latch, the no-space latch (creating an entry consumes space), and the
// transient fd-exhaustion class, before the ordinary FaultCreate class.
func (f *Faulty) Create(t T, dir, name string) (FD, bool) {
	what := func() string { return "create " + dir + "/" + name }
	if f.failStop(t, what) || f.noSpaceGate(t, what) || f.begin(t, FaultNoFiles, what) {
		return nil, false
	}
	if f.begin(t, FaultCreate, func() string { return dir + "/" + name }) {
		return nil, false
	}
	return f.inner.Create(t, dir, name)
}

// Open implements System. A fail-stopped backend fails every Open;
// FaultNoFiles fails it transiently (the descriptor table was full
// right then — retry later); absent-file failure is already part of
// the API. Open is also the FaultCorrupt decision point: each open of
// a file is one chance for its stored bytes to have silently rotted
// before the (still successful) open observes them.
func (f *Faulty) Open(t T, dir, name string) (FD, bool) {
	what := func() string { return "open " + dir + "/" + name }
	if f.failStop(t, what) || f.begin(t, FaultNoFiles, what) {
		return nil, false
	}
	f.corrupt(t, dir, name)
	return f.inner.Open(t, dir, name)
}

// corrupt counts the FaultCorrupt decision point and, when the policy
// injects, durably mangles the named file via the inner backend's
// Corrupter. The corruption mode is one more enumerable choice under
// the model (tag "corrupt-mode") and a pure function of the call index
// otherwise, so seeded schedules stay bit-for-bit replayable. The event
// is logged only when bytes actually changed; the decision point is
// counted regardless, keeping indices schedule-independent.
func (f *Faulty) corrupt(t T, dir, name string) {
	c := AsCorrupter(f.inner)
	if c == nil {
		return
	}
	f.mu.Lock()
	idx := f.calls[FaultCorrupt]
	f.calls[FaultCorrupt]++
	f.mu.Unlock()
	if !f.policy.Decide(t, FaultCorrupt, idx) {
		return
	}
	mode := CorruptMode(splitmix64(idx) % uint64(NumCorruptModes))
	if mt, ok := t.(*machine.T); ok {
		mode = CorruptMode(mt.Choose(int(NumCorruptModes), "corrupt-mode"))
	}
	if !c.CorruptFile(t, dir, name, mode) {
		return
	}
	f.mu.Lock()
	f.faults[FaultCorrupt]++
	f.log = append(f.log, FaultEvent{Op: FaultCorrupt, Index: idx, Detail: mode.String() + " " + dir + "/" + name})
	f.mu.Unlock()
	f.Metrics.FaultInjected(FaultCorrupt)
}

// Append implements System. Appending consumes space, so it passes the
// no-space gate before the transient FaultAppend class.
func (f *Faulty) Append(t T, fd FD, data []byte) bool {
	if f.failStop(t, func() string { return "append" }) {
		return false
	}
	if f.noSpaceGate(t, func() string { return fmt.Sprintf("append %d bytes", len(data)) }) {
		return false
	}
	if f.begin(t, FaultAppend, func() string { return fmt.Sprintf("%d bytes", len(data)) }) {
		return false
	}
	return f.inner.Append(t, fd, data)
}

// Close implements System (never faulted: close of a valid fd cannot
// meaningfully fail transiently).
func (f *Faulty) Close(t T, fd FD) { f.inner.Close(t, fd) }

// ReadAt implements System. A fault truncates the read to roughly half
// its actual length, but never to zero bytes (zero means end-of-file in
// this API, as in POSIX), so robust callers that advance by the
// returned length still terminate correctly.
// A fail-stopped backend returns no data at all: callers that treat an
// empty read as end-of-file are exactly why Mirrored checks the latch
// (FailStopped) rather than inferring death from results.
func (f *Faulty) ReadAt(t T, fd FD, off, n uint64) []byte {
	if f.failStop(t, func() string { return fmt.Sprintf("read off %d", off) }) {
		return nil
	}
	data := f.inner.ReadAt(t, fd, off, n)
	if len(data) < 2 {
		return data
	}
	short := (len(data) + 1) / 2
	if f.begin(t, FaultReadShort, func() string { return fmt.Sprintf("off %d: %d -> %d bytes", off, len(data), short) }) {
		return data[:short]
	}
	return data
}

// Size implements System (no transient class). A fail-stopped backend
// reports zero; callers distinguish "dead" from "empty" via FailStopped.
func (f *Faulty) Size(t T, fd FD) uint64 {
	if f.failStop(t, func() string { return "size" }) {
		return 0
	}
	return f.inner.Size(t, fd)
}

// Sync implements System.
func (f *Faulty) Sync(t T, fd FD) bool {
	if f.failStop(t, func() string { return "sync" }) {
		return false
	}
	if f.begin(t, FaultSync, func() string { return "" }) {
		return false
	}
	return f.inner.Sync(t, fd)
}

// SyncDir implements System. Directory syncs share FaultSync with file
// syncs: both are durability barriers, and an injected failure means
// the barrier did not happen — the caller must not ack anything that
// depended on it (though, unlike a file Sync, it may retry).
func (f *Faulty) SyncDir(t T, dir string) bool {
	if f.failStop(t, func() string { return "syncdir " + dir }) {
		return false
	}
	if f.begin(t, FaultSync, func() string { return dir }) {
		return false
	}
	return f.inner.SyncDir(t, dir)
}

// Delete implements System. Deletes are never blocked by the no-space
// latch — removing data is how a full disk recovers — and a successful
// delete releases space, clearing the latch.
func (f *Faulty) Delete(t T, dir, name string) bool {
	if f.failStop(t, func() string { return "delete " + dir + "/" + name }) {
		return false
	}
	if f.begin(t, FaultDelete, func() string { return dir + "/" + name }) {
		return false
	}
	ok := f.inner.Delete(t, dir, name)
	if ok {
		f.spaceFreed()
	}
	return ok
}

// Link implements System. A new directory entry consumes space, so
// Link passes the no-space gate.
func (f *Faulty) Link(t T, oldDir, oldName, newDir, newName string) bool {
	arrow := func() string { return oldDir + "/" + oldName + " -> " + newDir + "/" + newName }
	what := func() string { return "link " + arrow() }
	if f.failStop(t, what) || f.noSpaceGate(t, what) || f.begin(t, FaultLink, arrow) {
		return false
	}
	return f.inner.Link(t, oldDir, oldName, newDir, newName)
}

// List implements System (no transient class; the model keeps it
// atomic). A fail-stopped backend lists nothing.
func (f *Faulty) List(t T, dir string) []string {
	if f.failStop(t, func() string { return "list " + dir }) {
		return nil
	}
	return f.inner.List(t, dir)
}
