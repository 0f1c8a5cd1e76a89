// Package machine models the Goose machine of §6: a shared-memory
// multiprocessor running lightweight threads, with a versioned volatile
// heap, locks, and pluggable durable devices (disks, a file system).
//
// Every primitive operation is one atomic step. A deterministic
// cooperative scheduler serializes threads: exactly one simulated thread
// runs at a time, and all nondeterminism — which thread steps next,
// whether a crash happens now, random numbers, device failures — is
// resolved by a Chooser supplied by the caller. The model checker in
// internal/explore drives the Chooser to enumerate executions; a seeded
// PRNG Chooser gives randomized stress runs.
//
// Crash semantics follow §5.2 and §6.2: a crash kills every thread,
// discards all volatile state (heap cells, locks), advances the memory
// version number, and notifies each registered device so it can keep its
// durable state and drop its volatile state (e.g. open file
// descriptors). Using a heap cell or lock allocated before the crash is
// a detected violation ("stale pointer"), the executable analog of the
// paper's versioned points-to capabilities.
//
// Racy access is undefined behaviour, per §6.1: a store is modeled as two
// atomic steps (start and end), and any other access to the same cell
// between them is reported as a race violation.
package machine

import (
	"errors"
	"fmt"
	"math"
)

// TID identifies a simulated thread within one era of execution.
type TID int

// Chooser resolves every nondeterministic choice the machine makes.
// Choose(n, tag) must return a value in [0, n). The tag describes the
// kind of choice ("sched", "crash", "rand", "diskfail", ...) for traces
// and for choosers that want to treat kinds differently.
type Chooser interface {
	Choose(n int, tag string) int
}

// ChooserFunc adapts a function to the Chooser interface.
type ChooserFunc func(n int, tag string) int

// Choose implements Chooser.
func (f ChooserFunc) Choose(n int, tag string) int { return f(n, tag) }

// Observer receives structured schedule events as the machine runs:
// which thread each "sched" choice resolved to, and when a crash is
// injected. The Chooser alone cannot see this — it is offered an
// anonymous option count, while the machine knows which runnable
// thread an option denotes. internal/explore uses an Observer to
// record replayable counterexample schedules. Callbacks run on the
// scheduler, between atomic steps; they must not call back into the
// machine.
type Observer interface {
	// Scheduled reports that the next atomic step belongs to tid.
	Scheduled(tid TID)
	// CrashInjected reports that the era is ending in an injected crash.
	CrashInjected()
}

// Device is durable hardware attached to the machine. Crash is invoked
// on every machine crash; the device must discard volatile state (e.g.
// open file descriptors) and keep durable state (e.g. disk blocks).
type Device interface {
	Crash()
}

// Outcome says how an era of execution ended.
type Outcome int

const (
	// Done: every thread ran to completion.
	Done Outcome = iota
	// Crashed: the Chooser injected a crash; all threads were killed.
	Crashed
	// Violation: undefined behaviour or a model-level failure was
	// detected (race, stale pointer, deadlock, panic, step budget).
	Violation
)

func (o Outcome) String() string {
	switch o {
	case Done:
		return "done"
	case Crashed:
		return "crashed"
	case Violation:
		return "violation"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// EraResult reports the outcome of one era (a run between machine
// (re)starts) together with the violation error, if any.
type EraResult struct {
	Outcome Outcome
	Err     error
}

// thread lifecycle statuses. Only the scheduler and the single running
// thread mutate these, and the coroutine switches between the two order
// all accesses. A parking thread yields the status it parks in; a
// carrier whose thread has returned yields statusExited and goes idle.
type status int

const (
	statusReady status = iota
	statusBlocked
	statusExited
)

// killedSentinel is panicked by a primitive when its thread is killed by
// a crash (or aborts itself with Failf); the thread wrapper recovers it.
type killedSentinel struct{}

// TraceAll is the TraceDepth that retains every trace line.
const TraceAll = math.MaxInt

// Options configures a Machine.
type Options struct {
	// MaxSteps bounds the number of primitive steps per era; exceeding it
	// is reported as a violation (possible infinite loop — the class of
	// bug in §9.5's Pickup loop). 0 means the default of 100000.
	MaxSteps int
	// TraceDepth attaches the trace: the machine keeps the last
	// TraceDepth lines (TraceAll keeps every line). 0 attaches none, and
	// Tracef then formats nothing — the model checker searches this way
	// and regenerates a failing execution's trace by replaying it.
	TraceDepth int
	// Observer, when non-nil, receives structured schedule events.
	Observer Observer
}

// Machine is one simulated machine instance. Durable devices survive
// CrashReset; everything else is volatile.
type Machine struct {
	chooser Chooser
	opts    Options

	version uint64
	devices []Device

	carriers *Carriers // what the threads run on: NewOn's set, or private
	private  Carriers  // a bare machine's own era-scoped set
	threads  []*thread // the running era's threads, by TID
	alive    int
	ready    []*thread // runnable()'s buffer, reused between steps

	steps   int
	failure error

	// trace is a ring of the last opts.TraceDepth lines: it grows by
	// append until full, then traceHead is the oldest line's slot.
	trace     []string
	traceHead int

	running bool
}

// New creates a machine with no devices at version 1. Its threads run
// on a private, era-scoped carrier set: every thread's goroutine is gone
// when RunEra returns, and there is nothing to release.
func New(opts Options) *Machine { return NewOn(nil, opts) }

// NewOn is New for a caller that runs many executions: the machine's
// threads run on cs, whose carriers outlive the machine and keep their
// grown stacks for the caller's next one. The caller owns cs and
// releases it. A nil cs is New.
func NewOn(cs *Carriers, opts Options) *Machine {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 100000
	}
	m := &Machine{opts: opts, version: 1, carriers: cs}
	if cs == nil {
		m.private.eraScoped = true
		m.carriers = &m.private
	}
	return m
}

// Version returns the current memory generation number n of §5.2. It
// starts at 1 and increments on every crash.
func (m *Machine) Version() uint64 { return m.version }

// Steps returns the number of primitive steps taken so far across all
// eras (useful as a logical clock for histories).
func (m *Machine) Steps() int { return m.steps }

// RegisterDevice attaches a durable device; its Crash method will be
// invoked on CrashReset.
func (m *Machine) RegisterDevice(d Device) { m.devices = append(m.devices, d) }

// Failf records a violation. The first failure wins. When called from a
// running thread the caller should abort that thread via T.Failf instead.
func (m *Machine) Failf(format string, args ...any) {
	if m.failure == nil {
		m.failure = fmt.Errorf(format, args...)
	}
}

// Failure returns the recorded violation, if any.
func (m *Machine) Failure() error { return m.failure }

// Tracing reports whether a trace is attached (Options.TraceDepth > 0).
func (m *Machine) Tracing() bool { return m.opts.TraceDepth > 0 }

// Tracef appends a line to the execution trace, if one is attached.
func (m *Machine) Tracef(format string, args ...any) {
	if m.Tracing() {
		m.traceLine(fmt.Sprintf(format, args...))
	}
}

func (m *Machine) traceLine(line string) {
	if len(m.trace) < m.opts.TraceDepth {
		m.trace = append(m.trace, line)
		return
	}
	m.trace[m.traceHead] = line
	m.traceHead = (m.traceHead + 1) % len(m.trace)
}

// Trace returns the retained execution trace, oldest line first.
func (m *Machine) Trace() []string {
	if m.traceHead == 0 {
		return m.trace
	}
	out := make([]string, 0, len(m.trace))
	out = append(out, m.trace[m.traceHead:]...)
	return append(out, m.trace[:m.traceHead]...)
}

// ResetTrace clears the trace between executions.
func (m *Machine) ResetTrace() { m.trace, m.traceHead = m.trace[:0], 0 }

// CrashReset models the machine crashing and rebooting: all volatile
// state is gone, the memory version advances, and devices keep only
// their durable state. Threads must already be dead (RunEra kills them
// before returning Crashed).
func (m *Machine) CrashReset() {
	if m.running {
		panic("machine: CrashReset during a running era")
	}
	m.version++
	for _, d := range m.devices {
		d.Crash()
	}
	m.Tracef("-- crash: memory version now %d --", m.version)
}

// CrashChoose resolves crash-time nondeterminism from inside a
// Device.Crash handler — e.g. which prefix of an unsynced file tail
// survives a torn crash. No thread is running during CrashReset, so the
// choice cannot go through T.Choose; it is resolved by the chooser of
// the era that just crashed (RunEra leaves it installed). Outside any
// era (unit tests driving CrashReset directly) there is no chooser and
// the first option is taken, preserving the deterministic default.
// Out-of-range answers are clamped to 0, matching ScriptChooser's
// treatment of exhausted scripts so replay and minimization stay valid.
func (m *Machine) CrashChoose(n int, tag string) int {
	if n <= 1 || m.chooser == nil {
		return 0
	}
	c := m.chooser.Choose(n, tag)
	if c < 0 || c >= n {
		return 0
	}
	return c
}

// RunEra runs one era: main is started as thread 0 and the era continues
// until every thread (including ones spawned with T.Go) has exited, a
// crash is injected, or a violation is detected. If allowCrash is true
// the Chooser is offered a crash option at every scheduling point.
func (m *Machine) RunEra(chooser Chooser, allowCrash bool, main func(t *T)) EraResult {
	if m.running {
		panic("machine: RunEra reentered")
	}
	m.running = true
	// The thread list and runnable()'s buffer are the set's, on loan for
	// the era; every return below leaves no thread alive to be in them.
	cs := m.carriers
	m.threads, m.ready, cs.threads, cs.ready = cs.threads, cs.ready, nil, nil
	defer func() {
		clear(m.threads)
		clear(m.ready[:cap(m.ready)])
		cs.threads, cs.ready, m.threads, m.ready = m.threads[:0], m.ready[:0], nil, nil
		m.running = false
	}()

	m.chooser = chooser
	m.failure = nil
	m.alive = 0

	m.spawn(main)

	for {
		if m.failure != nil {
			m.killAll()
			return EraResult{Outcome: Violation, Err: m.failure}
		}
		runnable := m.runnable()
		if len(runnable) == 0 {
			if m.alive == 0 {
				return EraResult{Outcome: Done}
			}
			m.Failf("deadlock: %d thread(s) blocked with no runnable thread", m.alive)
			m.killAll()
			return EraResult{Outcome: Violation, Err: m.failure}
		}

		n := len(runnable)
		if allowCrash {
			n++
		}
		choice := m.chooser.Choose(n, "sched")
		if choice < 0 || choice >= n {
			m.Failf("chooser returned %d out of range [0,%d)", choice, n)
			m.killAll()
			return EraResult{Outcome: Violation, Err: m.failure}
		}
		if allowCrash && choice == n-1 {
			m.Tracef("scheduler: inject crash")
			if m.opts.Observer != nil {
				m.opts.Observer.CrashInjected()
			}
			m.killAll()
			return EraResult{Outcome: Crashed}
		}

		th := runnable[choice]
		if m.opts.Observer != nil {
			m.opts.Observer.Scheduled(th.id)
		}
		m.resume(th)

		if m.steps > m.opts.MaxSteps && m.failure == nil {
			m.Failf("step budget exceeded (%d steps): possible infinite loop or livelock", m.opts.MaxSteps)
		}
	}
}

func (m *Machine) runnable() []*thread {
	out := m.ready[:0]
	for _, th := range m.threads {
		if th.status == statusReady {
			out = append(out, th)
		}
	}
	m.ready = out
	return out
}

// killAll terminates every live thread. It is only called between steps,
// when no thread is executing. A parked thread is marked dead and
// resumed once: it unwinds on the kill sentinel (its deferred calls run,
// but take no machine step: see T.Step) and hands its carrier back. A
// thread that was never scheduled simply never starts.
func (m *Machine) killAll() {
	for _, th := range m.threads {
		switch {
		case th.status == statusExited:
		case th.c == nil:
			th.status = statusExited
			m.alive--
		default:
			th.dead = true
			m.resume(th)
		}
	}
}

// spawn creates a thread. It takes a carrier, and first runs, when first
// scheduled (see resume).
func (m *Machine) spawn(fn func(t *T)) TID {
	th := &thread{id: TID(len(m.threads)), status: statusReady, fn: fn}
	th.t = T{m: m, th: th}
	m.threads = append(m.threads, th)
	m.alive++
	return th.id
}

type thread struct {
	id     TID
	status status
	// dead is set once the thread is killed or has aborted itself: it
	// is unwinding and takes no further machine step.
	dead bool

	fn func(t *T) // the body
	t  T          // the handle fn is given
	c  *carrier   // what it runs on, from its first resume to its exit
}

// T is the handle a simulated thread uses to interact with the machine.
// All primitive operations go through T; each is one atomic step.
type T struct {
	m  *Machine
	th *thread
}

// ID returns this thread's identifier within the current era.
func (t *T) ID() TID { return t.th.id }

// Machine returns the underlying machine, for device packages that
// implement new primitives.
func (t *T) Machine() *Machine { return t.m }

// park hands control back to the scheduler, leaving the thread in
// status st, until it is resumed. A thread killed while parked wakes up
// dead and panics with the kill sentinel — as does every later call,
// without parking, so that code running while it unwinds (a deferred
// lock.Release, say) takes no machine step and touches no device state:
// primitives park before they act.
func (t *T) park(st status) {
	if !t.th.dead {
		t.th.c.yield(st) // always true: only an idle carrier is ever stopped
	}
	if t.th.dead {
		panic(killedSentinel{})
	}
}

// Step marks an atomic step boundary: the thread parks and the scheduler
// picks who runs next. Device packages call this exactly once per
// primitive, before applying the primitive's effect. tag names the
// primitive for readers of the call site.
func (t *T) Step(tag string) {
	if !t.th.dead {
		t.m.steps++
	}
	t.park(statusReady)
}

// block parks the thread in a non-runnable state; wake from another
// thread makes it runnable again.
func (t *T) block() { t.park(statusBlocked) }

// Failf reports undefined behaviour or a model violation detected by
// this thread and aborts it.
func (t *T) Failf(format string, args ...any) {
	t.m.Failf(format, args...)
	t.th.dead = true
	panic(killedSentinel{})
}

// Tracef appends a line to the machine trace, prefixed with the thread.
func (t *T) Tracef(format string, args ...any) {
	if t.m.Tracing() {
		line := fmt.Appendf(nil, "t%d: ", t.th.id)
		t.m.traceLine(string(fmt.Appendf(line, format, args...)))
	}
}

// trace is Tracef("<verb> <name>") for the heap and lock primitives. It
// takes the strings as they are, so that nothing is boxed — and an
// untraced primitive allocates nothing — when no trace is attached.
func (t *T) trace(verb, name string) {
	if t.m.Tracing() {
		t.Tracef("%s %s", verb, name)
	}
}

// Go spawns a new thread running fn, like a Go `go` statement (§6.1).
// Spawning is one atomic step.
func (t *T) Go(fn func(t *T)) TID {
	t.Step("go")
	tid := t.m.spawn(fn)
	t.Tracef("go -> t%d", tid)
	return tid
}

// RandUint64 returns a nondeterministically chosen value in [0, bound),
// resolved by the Chooser (tag "rand"). Mailboat uses this for spool
// file names; under the model checker the domain should be small.
func (t *T) RandUint64(bound uint64) uint64 {
	if bound == 0 {
		t.Failf("RandUint64 with zero bound")
	}
	t.Step("rand")
	n := bound
	const maxEnum = 1 << 20
	if n > maxEnum {
		n = maxEnum
	}
	v := uint64(t.m.chooser.Choose(int(n), "rand"))
	t.Tracef("rand(%d) = %d", bound, v)
	return v
}

// Choose resolves a device-level nondeterministic choice within the
// current atomic step (no extra scheduling point). Device packages use
// this for choices like disk-failure injection.
func (t *T) Choose(n int, tag string) int {
	c := t.m.chooser.Choose(n, tag)
	if c < 0 || c >= n {
		t.Failf("chooser returned %d out of range [0,%d) for %q", c, n, tag)
	}
	return c
}

// ErrStale is wrapped by stale-pointer violations.
var ErrStale = errors.New("use of volatile resource from a previous version")

// checkVersion verifies a volatile resource is from the current memory
// version, the executable form of the p ↦ₙ v version check of §5.2.
func (t *T) checkVersion(kind, name string, v uint64) {
	if v != t.m.version {
		t.Failf("%s %s allocated at version %d used at version %d: %w", kind, name, v, t.m.version, ErrStale)
	}
}
