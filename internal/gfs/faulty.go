package gfs

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

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

// Corrupter is implemented by backends whose durable bytes fault.Corrupt
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

// NeverPolicy is fault.Never under the name bench/ladder.go spells;
// in-tree code says fault.Never.
type NeverPolicy = fault.Never

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
// index-th decision point of class c faults iff a hash of (Seed, c,
// index) lands in the 1-in-Rates[c] window. Decisions are pure functions
// of the seed, so the same seed reproduces the same fault schedule —
// bit-for-bit — on every run, which is what makes production fault
// drills replayable.
type SeededPolicy struct {
	// Seed selects the schedule.
	Seed int64
	// Rates[c] = N means roughly 1 in N decision points of class c
	// fault; 0 disables the class.
	Rates [fault.NumClasses]uint64

	// MaxFaults, when nonzero, caps the total number of injected
	// faults. The cap is a global counter, so with concurrent callers
	// *which* calls land under the cap can vary — use 0 (unlimited) when
	// bit-for-bit log reproducibility matters.
	MaxFaults uint64

	injected atomic.Uint64
}

// UniformRates returns a Rates array failing every class that is not
// opt-in 1 in n calls: the opt-in classes are enabled per class, never
// implied.
func UniformRates(n uint64) [fault.NumClasses]uint64 {
	var r [fault.NumClasses]uint64
	for c := range fault.NumClasses {
		if !c.OptIn() {
			r[c] = n
		}
	}
	return r
}

// Decide implements fault.Policy.
func (p *SeededPolicy) Decide(_ fault.T, c fault.Class, index uint64) bool {
	rate := p.Rates[c]
	if rate == 0 {
		return false
	}
	h := splitmix64(uint64(p.Seed) ^ splitmix64(uint64(c)+1) ^ splitmix64(index))
	if h%rate != 0 {
		return false
	}
	return p.MaxFaults == 0 || p.injected.Add(1) <= p.MaxFaults
}

// Faulty is a fault-injecting System middleware: it wraps either
// backend (Model or OS) and, per operation, asks its Policy whether to
// inject a fault of the storage classes. A fault means the operation
// fails *without touching the inner backend* (except short reads, which
// truncate the inner result), so the fault semantics are exactly "the
// syscall returned an error and had no effect" — the strongest
// transient-fault model the POSIX API admits. Its fault.Log's per-class
// counters and events make any seeded failure reproducible.
type Faulty struct {
	inner  System
	policy fault.Policy

	// Metrics counts injected faults per class into the shared
	// file-system metrics (gfs_faults_injected_total); zero, it counts
	// nothing. The replayable log stays authoritative for drills; the
	// counters exist for scraping.
	Metrics FSMetrics

	log fault.Log

	// failStopped is the permanent-death latch: once set (by the policy
	// injecting fault.FailStop, or by FailStopNow), every operation fails
	// without reaching the inner backend for the layer's lifetime — a
	// reboot builds a fresh layer over the replaced disk. The log counts
	// fail-stop *decision points* — operations that consulted the policy
	// while alive — so seeded fail-stop schedules are a pure function of
	// (seed, index) exactly like the transient classes.
	failStopped atomic.Bool

	// noSpace is the disk-full latch: once set (by the policy injecting
	// fault.NoSpace, or by NoSpaceNow), every space-consuming write
	// (Create, Append, Link) fails without reaching the inner backend
	// until space is freed — a successful Delete through this layer, or
	// FreeSpace. While latched, writes do NOT consult the policy: like
	// the fail-stop latch, a durable class charges the budget once at
	// injection and never again.
	noSpace atomic.Bool

	// m is the machine of the Model the layer wraps, nil over any other
	// backend: the latches declare their accesses there (DESIGN.md
	// "Source sets and wakeup trees"), as objects obj+failStopLatch and
	// obj+noSpaceLatch.
	m   *machine.Machine
	obj machine.Obj
}

// The latches' footprint names, offsets from Faulty.obj.
const (
	failStopLatch machine.Obj = iota
	noSpaceLatch
)

// NewFaulty wraps inner with the given fault policy.
func NewFaulty(inner System, policy fault.Policy) *Faulty {
	f := &Faulty{inner: inner, policy: policy}
	if fs, ok := inner.(*Model); ok {
		f.m, f.obj = fs.m, fs.m.Objects(2)
	}
	return f
}

// touch declares an access to a latch on the wrapped Model's machine.
func (f *Faulty) touch(latch machine.Obj, md machine.Mode) {
	if f.m != nil {
		f.m.Touch(f.obj+latch, md)
	}
}

// Inner returns the wrapped backend (e.g. to reach Model.PeekDir or
// OS.CloseAll through the middleware).
func (f *Faulty) Inner() System { return f.inner }

// Counters returns per-class (decision points, injected faults).
func (f *Faulty) Counters() (calls, faults [fault.NumClasses]uint64) { return f.log.Counters() }

// Log returns a copy of the fault log in injection order.
func (f *Faulty) Log() []fault.Event { return f.log.Events() }

// ResetLog clears the log and counters (e.g. between soak rounds).
func (f *Faulty) ResetLog() { f.log.Reset() }

// FailStopped reports whether the backend is latched dead. Mirrored
// uses it (via the FailStopper interface) to tell "replica died" apart
// from ordinary operation failures.
func (f *Faulty) FailStopped() bool {
	f.touch(failStopLatch, machine.Read)
	return f.failStopped.Load()
}

// FailStopNow latches the backend dead immediately, bypassing the
// policy — the operational kill switch (drills, soak tests, demos).
// It records a fail-stop event like a policy-injected death.
func (f *Faulty) FailStopNow(detail string) {
	f.touch(failStopLatch, machine.Write)
	if !f.failStopped.Swap(true) {
		f.log.Force(fault.FailStop, detail)
		f.Metrics.faults[fault.FailStop].Inc()
	}
}

// NoSpace reports whether the backend is latched full. mailboat uses it
// (via an interface assertion, like FailStopped) to fail fast instead
// of burning its retry budget against a full disk, and the shed policy
// uses it as its modeled-space signal.
func (f *Faulty) NoSpace() bool {
	f.touch(noSpaceLatch, machine.Read)
	return f.noSpace.Load()
}

// NoSpaceNow latches the backend full immediately, bypassing the
// policy — the operational fill switch for drills and soak tests. It
// records a no-space event like a policy-injected fill.
func (f *Faulty) NoSpaceNow(detail string) {
	f.touch(noSpaceLatch, machine.Write)
	if !f.noSpace.Swap(true) {
		f.log.Force(fault.NoSpace, detail)
		f.Metrics.faults[fault.NoSpace].Inc()
	}
}

// FreeSpace clears the no-space latch: the operator freed space
// elsewhere, or a Delete through this layer did. Deterministic — no
// choice point — and it refunds no policy budget: a fault.Chooser that
// filled the disk once stays spent, which is what bounds checker
// scenarios to one fill.
func (f *Faulty) FreeSpace() {
	if f.NoSpace() {
		f.touch(noSpaceLatch, machine.Write)
		f.noSpace.Store(false)
	}
}

// describe renders the detail a fault.Event and the trace lines carry.
// The gate calls it only once the policy has decided to inject, so a
// call that does not fault costs its counter and one Decide — no string
// is built for it.
type describe func() string

// record logs an injection the gate has stepped and traced.
func (f *Faulty) record(c fault.Class, idx uint64, detail string) {
	f.log.Record(c, idx, detail)
	f.Metrics.faults[c].Inc()
}

// gate is the decision point of class c. It reports true when the
// operation must fail without reaching the inner backend. Every
// operation passes the fail-stop gate before anything else (a dead disk
// fails reads, listings and stats too), and the space-consuming ones
// (Create, Append, Link) pass the no-space gate next.
//
// Fail-stop and no-space have a latch. Once it is set, every call fails
// as one step ("fs.dead", "fs.enospc") with no policy consult and no
// index: a durable class charges the budget once, at injection, and a
// reboot's fresh layer clears the latch without refunding it. Any other
// call is one decision point with its own index, so seeded schedules
// replay and the checker enumerates "the fault strikes at call i" for
// every i. An injection is one atomic step, like a real faulted syscall
// ("fs.failstop", "fs.nospace", "fs.fault"); it is then traced, logged
// and counted, and it sets the class's latch.
func (f *Faulty) gate(t T, c fault.Class, what describe) bool {
	var latch *atomic.Bool
	var obj machine.Obj
	dead, step, class := "", "fs.fault", c.String()
	switch c {
	case fault.FailStop:
		latch, obj, dead, step, class = &f.failStopped, failStopLatch, "fs.dead", "fs.failstop", ""
	case fault.NoSpace:
		latch, obj, dead, step, class = &f.noSpace, noSpaceLatch, "fs.enospc", "fs.nospace", ""
	}
	if latch != nil {
		f.touch(obj, machine.Read)
		if latch.Load() {
			if mt, ok := t.(*machine.T); ok {
				mt.StepDeclared(dead)
				f.touch(obj, machine.Read)
			}
			return true
		}
	}
	idx, inject := f.log.Decide(t, f.policy, c)
	if !inject {
		return false
	}
	detail := what()
	if mt, ok := t.(*machine.T); ok {
		mt.StepDeclared(step)
		if latch != nil {
			f.touch(obj, machine.Write)
		}
	}
	if latch != nil {
		latch.Store(true)
	}
	f.record(c, idx, detail)
	if trace.Active(t) {
		trace.Event(t, "%s %s#%d %s", step, class, idx, detail)
	}
	return true
}

// NewLock implements System (never faulted: locks are volatile memory).
func (f *Faulty) NewLock(t T, name string) Lock { return f.inner.NewLock(t, name) }

// Create implements System. It passes three fault gates: the fail-stop
// latch, the no-space latch (creating an entry consumes space), and the
// transient fd-exhaustion class, before the ordinary fault.Create class.
func (f *Faulty) Create(t T, dir, name string) (FD, bool) {
	what := func() string { return "create " + dir + "/" + name }
	if f.gate(t, fault.FailStop, what) || f.gate(t, fault.NoSpace, what) || f.gate(t, fault.NoFiles, what) ||
		f.gate(t, fault.Create, func() string { return dir + "/" + name }) {
		return nil, false
	}
	return f.inner.Create(t, dir, name)
}

// Open implements System. A fail-stopped backend fails every Open;
// fault.NoFiles fails it transiently (the descriptor table was full
// right then — retry later); absent-file failure is already part of
// the API. Open is also the fault.Corrupt decision point: each open of
// a file is one chance for its stored bytes to have silently rotted
// before the (still successful) open observes them.
func (f *Faulty) Open(t T, dir, name string) (FD, bool) {
	what := func() string { return "open " + dir + "/" + name }
	if f.gate(t, fault.FailStop, what) || f.gate(t, fault.NoFiles, what) {
		return nil, false
	}
	f.corrupt(t, dir, name)
	return f.inner.Open(t, dir, name)
}

// corrupt counts the fault.Corrupt decision point and, when the policy
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
	idx, inject := f.log.Decide(t, f.policy, fault.Corrupt)
	if !inject {
		return
	}
	mode := CorruptMode(splitmix64(idx) % uint64(NumCorruptModes))
	if mt, ok := t.(*machine.T); ok {
		mode = CorruptMode(mt.Choose(int(NumCorruptModes), "corrupt-mode"))
	}
	if c.CorruptFile(t, dir, name, mode) {
		f.record(fault.Corrupt, idx, mode.String()+" "+dir+"/"+name)
	}
}

// Append implements System. Appending consumes space, so it passes the
// no-space gate before the transient fault.Append class.
func (f *Faulty) Append(t T, fd FD, data []byte) bool {
	if f.gate(t, fault.FailStop, func() string { return "append" }) ||
		f.gate(t, fault.NoSpace, func() string { return fmt.Sprintf("append %d bytes", len(data)) }) ||
		f.gate(t, fault.Append, func() string { return fmt.Sprintf("%d bytes", len(data)) }) {
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
	if f.gate(t, fault.FailStop, func() string { return fmt.Sprintf("read off %d", off) }) {
		return nil
	}
	data := f.inner.ReadAt(t, fd, off, n)
	if len(data) < 2 {
		return data
	}
	short := (len(data) + 1) / 2
	if f.gate(t, fault.ReadShort, func() string { return fmt.Sprintf("off %d: %d -> %d bytes", off, len(data), short) }) {
		return data[:short]
	}
	return data
}

// Size implements System (no transient class). A fail-stopped backend
// reports zero; callers distinguish "dead" from "empty" via FailStopped.
func (f *Faulty) Size(t T, fd FD) uint64 {
	if f.gate(t, fault.FailStop, func() string { return "size" }) {
		return 0
	}
	return f.inner.Size(t, fd)
}

// Sync implements System.
func (f *Faulty) Sync(t T, fd FD) bool {
	if f.gate(t, fault.FailStop, func() string { return "sync" }) || f.gate(t, fault.Sync, func() string { return "" }) {
		return false
	}
	return f.inner.Sync(t, fd)
}

// SyncDir implements System. Directory syncs share fault.Sync with file
// syncs: both are durability barriers, and an injected failure means
// the barrier did not happen — the caller must not ack anything that
// depended on it (though, unlike a file Sync, it may retry).
func (f *Faulty) SyncDir(t T, dir string) bool {
	if f.gate(t, fault.FailStop, func() string { return "syncdir " + dir }) || f.gate(t, fault.Sync, func() string { return dir }) {
		return false
	}
	return f.inner.SyncDir(t, dir)
}

// Delete implements System. Deletes are never blocked by the no-space
// latch — removing data is how a full disk recovers — and a successful
// delete releases space, clearing the latch.
func (f *Faulty) Delete(t T, dir, name string) bool {
	if f.gate(t, fault.FailStop, func() string { return "delete " + dir + "/" + name }) ||
		f.gate(t, fault.Delete, func() string { return dir + "/" + name }) {
		return false
	}
	ok := f.inner.Delete(t, dir, name)
	if ok {
		f.FreeSpace()
	}
	return ok
}

// Link implements System. A new directory entry consumes space, so
// Link passes the no-space gate.
func (f *Faulty) Link(t T, oldDir, oldName, newDir, newName string) bool {
	arrow := func() string { return oldDir + "/" + oldName + " -> " + newDir + "/" + newName }
	what := func() string { return "link " + arrow() }
	if f.gate(t, fault.FailStop, what) || f.gate(t, fault.NoSpace, what) || f.gate(t, fault.Link, arrow) {
		return false
	}
	return f.inner.Link(t, oldDir, oldName, newDir, newName)
}

// List implements System (no transient class; the model keeps it
// atomic). A fail-stopped backend lists nothing.
func (f *Faulty) List(t T, dir string) []string {
	if f.gate(t, fault.FailStop, func() string { return "list " + dir }) {
		return nil
	}
	return f.inner.List(t, dir)
}
