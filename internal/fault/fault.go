// Package fault is the one fault vocabulary of the checked code: the
// classes gfs.Faulty injects into storage calls and netmodel.Net into
// network calls, the policies that decide each injection, and the log
// that counts and records them. Perennial makes a crash one more
// nondeterministic choice of the semantics; every other fault is the
// same kind of choice, and both axes make it through one Policy — so one
// Chooser budget can span disk and network in a single execution.
// DESIGN.md "Fault vocabulary" tables the classes
// (TestFaultClassesMatchDesignDoc).
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// Class is one kind of injected fault. The storage classes keep the
// values they had as gfs.FaultOp, so every seeded schedule replays.
type Class int

const (
	// Create fails a Create: the file is not created.
	Create Class = iota
	// Append fails an Append: no data is appended.
	Append
	// ReadShort truncates a ReadAt's result, never to zero bytes (zero
	// means end-of-file, as in POSIX).
	ReadShort
	// Sync fails a Sync or SyncDir: the barrier did not happen.
	Sync
	// Delete fails a Delete: the entry remains.
	Delete
	// Link fails a Link: the new entry is not created.
	Link
	// Corrupt durably flips a bit of, or truncates, the file being
	// opened, and the open proceeds: silent rot, visible only to an
	// integrity layer (gfs.Checksummed).
	Corrupt
	// FailStop kills the backend: every later call through the fault
	// layer fails without reaching it; a reboot's fresh layer reaches
	// the replaced disk again.
	FailStop
	// NoSpace latches the backend full: every write that consumes space
	// (Create, Append, Link) fails until a Delete or FreeSpace frees some.
	NoSpace
	// NoFiles fails an Open or Create transiently (EMFILE-style).
	NoFiles
	// Drop loses the request frame: the handler never runs, the caller
	// observes Lost.
	Drop
	// Dup delivers the request twice; the duplicate's reply is discarded.
	Dup
	// Reorder holds the request in the network: the caller observes
	// Unknown, and the frame may land at a later call to the same node —
	// across a crash too — or never.
	Reorder
	// DropReply runs the handler and loses its reply: the caller observes
	// Unknown.
	DropReply
	// Partition cuts the link for a bounded burst of calls in either
	// direction, then heals.
	Partition
	// NumClasses is the number of classes.
	NumClasses
)

// Axis is the layer a class is injected at.
type Axis int

const (
	// Storage classes are decided by gfs.Faulty, per file-system call.
	Storage Axis = iota
	// Network classes are decided by netmodel.Net, per call.
	Network
)

// String names the axis.
func (a Axis) String() string { return [...]string{"storage", "network"}[a] }

// classes is the vocabulary's table: each class's name, axis, the tag
// its Chooser decision carries, and whether it must be opted into. An
// opt-in class changes what a scenario is about — a latch that kills,
// fills or rots the store, descriptor exhaustion, network weather — so
// nil-Eligible choosers, nil-Ops Always and gfs.UniformRates skip it.
var classes = [NumClasses]struct {
	name  string
	axis  Axis
	tag   string
	optIn bool
}{
	Create:    {"create", Storage, "fault", false},
	Append:    {"append", Storage, "fault", false},
	ReadShort: {"read-short", Storage, "fault", false},
	Sync:      {"sync", Storage, "fault", false},
	Delete:    {"delete", Storage, "fault", false},
	Link:      {"link", Storage, "fault", false},
	Corrupt:   {"corrupt", Storage, "corrupt", true},
	FailStop:  {"fail-stop", Storage, "failstop", true},
	NoSpace:   {"no-space", Storage, "nospace", true},
	NoFiles:   {"no-files", Storage, "fault", true},
	Drop:      {"drop", Network, "net", true},
	Dup:       {"duplicate", Network, "net", true},
	Reorder:   {"reorder", Network, "net", true},
	DropReply: {"drop-reply", Network, "net", true},
	Partition: {"partition", Network, "net", true},
}

// String names the class.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classes[c].name
}

// Axis is the layer c is injected at.
func (c Class) Axis() Axis { return classes[c].axis }

// Tag is the chooser tag of c's decision under the model.
func (c Class) Tag() string { return classes[c].tag }

// OptIn reports whether c is injected only where it is listed.
func (c Class) OptIn() bool { return classes[c].optIn }

// Classes returns the set of the listed classes, for Chooser.Eligible
// and Always.Ops; nil (every transient storage class) when none is
// listed. Nothing writes to a set once built, so one may be shared by
// the policies of many executions.
func Classes(cs ...Class) map[Class]bool {
	if cs == nil {
		return nil
	}
	set := make(map[Class]bool, len(cs))
	for _, c := range cs {
		set[c] = true
	}
	return set
}

// Event is one injected fault. Index is the class's decision-point
// counter at injection, so an event names exactly which call faulted
// however calls of different classes interleaved.
type Event struct {
	Class  Class
	Index  uint64
	Detail string
}

// String renders the event as drills and logs print it.
func (e Event) String() string {
	return fmt.Sprintf("%s#%d %s", e.Class, e.Index, e.Detail)
}

// T is the thread a decision is made on: gfs.T's method set, as an
// alias of the unnamed interface so a gfs.T passes as is. Under the model
// it is a *machine.T.
type T = interface{ RandUint64(bound uint64) uint64 }

// Policy decides, at the index-th decision point of class c, whether to
// inject. A policy shared by concurrent native callers must be safe for
// concurrent use; under the model the scheduler serializes it.
type Policy interface {
	Decide(t T, c Class, index uint64) bool
}

// Chooser resolves each decision through the modeled machine's chooser,
// tagged with the class's Tag, so the checker enumerates faults like
// schedules and crash points. Budget bounds injections per execution:
// once spent, no further choices are consumed, which keeps the search
// finite although callers retry. Eligible restricts which classes
// branch; nil means every class that is not opt-in. On a native thread
// it never injects.
//
// A Chooser is per-execution state: build a fresh one in the scenario's
// Setup. Every layer holding the same instance spends the same budget —
// both replicas of a mirror, both nodes of a replicated pair and the
// network between them. The spent budget outlives a crash, so a Chooser
// is a machine.Device, and Setup registers it (DESIGN.md "Crash-boundary
// dedup").
type Chooser struct {
	Budget   int
	Eligible map[Class]bool
	used     int
}

// Decide implements Policy.
func (p *Chooser) Decide(t T, c Class, _ uint64) bool {
	mt, ok := t.(*machine.T)
	if !ok || p.used >= p.Budget {
		return false
	}
	if p.Eligible == nil {
		if c.OptIn() {
			return false
		}
	} else if !p.Eligible[c] {
		return false
	}
	// The budget declares nothing (DESIGN.md "Source sets and wakeup trees"): a decision
	// only offers an injection while the budget lasts, and an offer that
	// is not taken leaves the state as no offer does, so two threads'
	// decisions reach the same states in either order.
	if mt.Choose(2, c.Tag()) == 1 {
		p.used++
		return true
	}
	return false
}

// Crash and Save implement machine.Device: a crash leaves the budget as
// it is.
func (p *Chooser) Crash() {}

func (p *Chooser) Save() (restore func()) { return func() {} }

// AppendDurable appends the budget used so far, the only mutable state
// a Chooser carries. Decisions read the total alone; which classes spent
// it shows in the state the injections left, not in the Chooser.
func (p *Chooser) AppendDurable(b []byte) []byte {
	return machine.AppendUint64(b, uint64(p.used))
}

// Never injects nothing: a layer under it behaves as its inner one, and
// keeps only its latches (gfs.Faulty's operator kill switches).
type Never struct{}

// Decide implements Policy.
func (Never) Decide(T, Class, uint64) bool { return false }

// Always injects at every decision point of the classes in Ops (every
// transient storage class when Ops is nil) — for tests of retry
// exhaustion.
type Always struct{ Ops map[Class]bool }

// Decide implements Policy.
func (p Always) Decide(_ T, c Class, _ uint64) bool {
	if p.Ops == nil {
		return !c.OptIn()
	}
	return p.Ops[c]
}

// Log is a fault layer's injection record: per class, the decision
// points reached (calls) and the injections (faults), and the injected
// events in order. Every layer counts, decides and records through one:
// Decide, then — only when it says inject — the layer's own machine step
// and trace line, then Record. Safe for concurrent use; a decision that
// does not inject costs one atomic add and the policy's Decide.
type Log struct {
	calls  [NumClasses]atomic.Uint64
	mu     sync.Mutex // guards faults and events
	faults [NumClasses]uint64
	events []Event
}

// Decide counts one decision point of c and asks p whether to inject
// there, returning the point's index.
func (l *Log) Decide(t T, p Policy, c Class) (uint64, bool) {
	idx := l.calls[c].Add(1) - 1
	return idx, p.Decide(t, c, idx)
}

// Record logs an injection at decision point idx of c.
func (l *Log) Record(c Class, idx uint64, detail string) {
	l.mu.Lock()
	l.faults[c]++
	l.events = append(l.events, Event{Class: c, Index: idx, Detail: detail})
	l.mu.Unlock()
}

// Force logs an injection no policy decided — an operator's kill or
// fill switch — at c's current decision-point count.
func (l *Log) Force(c Class, detail string) {
	l.Record(c, l.calls[c].Load(), detail)
}

// Counters returns per-class (decision points, injections).
func (l *Log) Counters() (calls, faults [NumClasses]uint64) {
	for c := range calls {
		calls[c] = l.calls[c].Load()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return calls, l.faults
}

// Events returns a copy of the injected events in order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event{}, l.events...)
}

// Reset clears the events and counters (e.g. between soak rounds).
func (l *Log) Reset() {
	for c := range l.calls {
		l.calls[c].Store(0)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults, l.events = [NumClasses]uint64{}, nil
}
