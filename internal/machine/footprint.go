package machine

import (
	"slices"
	"sync/atomic"
)

// Footprints (DESIGN.md "Source sets and wakeup trees"). A transition
// is the step a "sched" draw picks plus the Go code its thread runs up
// to its next draw. Its footprint is what it declared it touches: each
// primitive declares its own accesses (StepDeclared, then Touch), and
// Go-level state shared between simulated threads declares its accesses
// with Touch. A transition whose step was taken with plain Step declared
// nothing and is global: dependent with every other transition. The
// explorer never reorders two dependent transitions.

// Obj names one piece of state a transition may touch. Names are plain
// integers: a collision between two names only adds a dependency.
type Obj uint64

// Mode is how a transition touches an Obj. Two accesses to one object
// commute when they have the same mode and it is not Write: two reads,
// two Invokes, two Returns. Every other pair conflicts.
type Mode uint8

const (
	// Read observes the object.
	Read Mode = iota
	// Write changes it.
	Write
	// Invoke and Return are the history harness's: two invocations
	// commute, as do two responses, but a response and an invocation
	// keep their real-time order.
	Invoke
	Return
)

// Access is one declared access: an object and its mode.
type Access uint64

// Obj returns the object a touches.
func (a Access) Obj() Obj { return Obj(a >> 2) }

// Mode returns how a touches it.
func (a Access) Mode() Mode { return Mode(a & 3) }

// Conflicts reports whether a and b touch one object in modes that do
// not commute.
func (a Access) Conflicts(b Access) bool {
	return a>>2 == b>>2 && (a != b || Mode(a&3) == Write)
}

// MaxAccesses bounds a transition's recorded footprint; a transition
// that declares more distinct accesses is global.
const MaxAccesses = 16

// Footprint is what one transition declared.
type Footprint struct {
	global bool
	n      int
	acc    [MaxAccesses]Access
}

// Global reports whether the transition is dependent with every other:
// its step declared nothing, or it declared more than MaxAccesses
// accesses.
func (f *Footprint) Global() bool { return f.global }

// Accesses returns the declared accesses, without duplicates.
func (f *Footprint) Accesses() []Access { return f.acc[:f.n] }

// Transition is what the Reducer is told of the transition a draw
// ends: the thread that ran it, the thread its go step spawned, if any,
// and its footprint. Two transitions are ordered when their footprints
// conflict, when one thread ran both, and by the two edges footprints
// do not carry: a spawned thread's first transition comes after the
// transition that spawned it, and an era's first draw (ran nil) comes
// after everything before it.
type Transition struct {
	Footprint
	thread, spawned TID
}

// Thread returns the thread that ran the transition.
func (t *Transition) Thread() TID { return t.thread }

// Spawned returns the thread the transition spawned; ok is false when
// it spawned none. A transition spawns at most one: T.Go is a step.
func (t *Transition) Spawned() (tid TID, ok bool) { return t.spawned, t.spawned >= 0 }

// start begins thread tid's transition.
func (t *Transition) start(tid TID, global bool) {
	t.thread, t.spawned, t.global, t.n = tid, -1, global, 0
}

func (f *Footprint) add(a Access) {
	if f.global {
		return
	}
	for _, x := range f.acc[:f.n] {
		if x == a {
			return
		}
	}
	if f.n == MaxAccesses {
		f.global = true
		return
	}
	f.acc[f.n] = a
	f.n++
}

// Reducer is told, at each "sched" draw, what the draw is choosing
// among, so that it can skip options whose outcome it has already
// covered. Options.Reducer installs one; a machine without one records
// no footprint.
type Reducer interface {
	// Sched is called at every "sched" draw, before the Chooser's
	// Choose(n, "sched"). ran is the transition the draw ends, nil at an
	// era's first draw; ready lists the threads the draw's options run,
	// in option order (a thread blocked on a lock is not among them);
	// crash says a last option crashes. Returning false ends the era
	// (Outcome Stopped) instead of drawing. Sched is called once more,
	// with ready empty, when the era has no runnable thread left; its
	// answer is then ignored. ran and ready are the machine's and are
	// valid only during the call.
	Sched(ran *Transition, ready []TID, crash bool) bool
}

// staticObjs hands out the names of StaticObj.
var staticObjs atomic.Uint64

// StaticObj returns a process-wide object name, for state of a type
// whose instances are not known to the machine when it is built: every
// instance shares the name, which only adds dependencies between them.
// Call it at package initialization.
func StaticObj() Obj { return Obj(1<<61 | staticObjs.Add(1)) }

// Objects reserves n fresh object names on this machine and returns the
// first. Names are handed out in sequence within an execution, so an
// object built at the same point of two executions has the same name,
// and an object built later than a given point never shares a name with
// one that existed at it. Heap cells and locks take theirs here too.
func (m *Machine) Objects(n uint64) Obj {
	o := m.nextObj
	m.nextObj += Obj(n)
	return o
}

// Touch declares that the running transition accesses o in mode md:
// the one way primitives, and Go-level state shared between simulated
// threads, declare their accesses. Code on a native thread has no
// machine and nothing to declare. Touch is a no-op when no Reducer is
// told of it, and outside an era, whose first draw reports no
// transition.
func (m *Machine) Touch(o Obj, md Mode) {
	if r := m.red; r != nil {
		r.tr.add(Access(o)<<2 | Access(md))
	}
}

// reduction is what a machine records for its Reducer: the running
// transition, whether the era has run none yet, and the draw's thread
// list.
type reduction struct {
	tr    Transition
	first bool
	ids   []TID
}

// Recorder is a Reducer that keeps every transition it is told of, in
// the order they ran, and lets every draw through: the witness of tests
// of what a primitive or a layer declares.
type Recorder struct {
	// Ran holds each transition's accesses, Threads the thread that ran
	// it, and Spawned the thread it spawned (-1 when none).
	Ran              [][]Access
	Threads, Spawned []TID
}

// Sched implements Reducer.
func (r *Recorder) Sched(ran *Transition, _ []TID, _ bool) bool {
	if ran != nil {
		r.Ran = append(r.Ran, slices.Clone(ran.Accesses()))
		r.Threads = append(r.Threads, ran.thread)
		r.Spawned = append(r.Spawned, ran.spawned)
	}
	return true
}

// Conflict reports whether an access of a conflicts with one of b.
func Conflict(a, b []Access) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Conflicts(y) {
				return true
			}
		}
	}
	return false
}
