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
// record replayable counterexample schedules. Callbacks run between
// atomic steps, on the scheduler or on the thread that stepped (see
// T.Step); they must not call back into the machine.
type Observer interface {
	// Scheduled reports that the next atomic step belongs to tid.
	Scheduled(tid TID)
	// CrashInjected reports that the era is ending in an injected crash.
	CrashInjected()
}

// Device is durable hardware attached to the machine. Crash is invoked
// on every machine crash; the device must discard volatile state (e.g.
// open file descriptors) and keep durable state (e.g. disk blocks).
//
// Save lets ProbeCrash run Crash without keeping its effect: it records
// everything Crash changes and returns a function that puts it back.
// The restore is called once after each probed crash, so it must work
// any number of times.
//
// AppendDurable appends a canonical encoding of the device's durable
// state — the state that survives Crash — to b: equal durable states
// must produce equal bytes, and the encoding must be self-delimiting
// (length-prefix variable-size parts) so devices cannot alias each
// other's bytes. The model checker in internal/explore builds its
// crash-boundary fingerprints from these encodings.
type Device interface {
	Crash()
	Save() (restore func())
	AppendDurable(b []byte) []byte
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
	// Stopped: the Reducer ended the era at a draw whose every option
	// it had already covered; all threads were killed.
	Stopped
)

func (o Outcome) String() string {
	switch o {
	case Done:
		return "done"
	case Crashed:
		return "crashed"
	case Violation:
		return "violation"
	case Stopped:
		return "stopped"
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
	// bug in §9.5's Pickup loop). 0 means the default of 100000. Each era
	// gets the whole budget, so nothing after a crash depends on how many
	// steps the eras before it took.
	MaxSteps int
	// TraceDepth attaches the trace: the machine keeps the last
	// TraceDepth lines (TraceAll keeps every line). 0 attaches none, and
	// Tracef then formats nothing — the model checker searches this way
	// and regenerates a failing execution's trace by replaying it.
	TraceDepth int
	// Observer, when non-nil, receives structured schedule events.
	Observer Observer
	// Reducer, when non-nil, is told each transition's footprint and
	// each draw's threads, and may stop an era (see Reducer).
	Reducer Reducer
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

	// steps counts every era's steps; eraStart is its value when the
	// running era began, so steps-eraStart is what MaxSteps bounds.
	steps    int
	eraStart int
	failure  error

	// allowCrash is the running era's: a "sched" draw offers a crash.
	// handed is a draw over handedN options that a stepping thread made
	// and parked on (see T.Step), for RunEra to act on instead of drawing
	// again; handedN is 0 when no draw is waiting.
	allowCrash      bool
	handed, handedN int

	// red records footprints for the Reducer, nil when there is none.
	// nextObj is the next name Objects hands out.
	red     *reduction
	nextObj Obj

	// trace is a ring of the last opts.TraceDepth lines: it grows by
	// append until full, then traceHead is the oldest line's slot.
	trace     []string
	traceHead int

	running bool

	// probe and restores are ProbeCrash's, kept for its next call.
	probe    crashProbe
	restores []func()
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
	if opts.Reducer != nil {
		if m.carriers.red == nil {
			m.carriers.red = new(reduction)
		}
		m.red = m.carriers.red
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
	m.crash()
	if m.Tracing() {
		m.Tracef("-- crash: memory version now %d --", m.version)
	}
}

// crash is what a crash does to the machine, taken (CrashReset) or
// probed (ProbeCrash).
func (m *Machine) crash() {
	m.version++
	for _, d := range m.devices {
		d.Crash()
	}
}

// CrashAnswer is one crash-time choice a device's Crash made through
// CrashChoose: N options, under Tag, and the one Chosen.
type CrashAnswer struct {
	N, Chosen int
	Tag       string
}

// ProbeCrash evaluates a crash without taking it. For every vector of
// answers to the CrashChoose calls with more than one option that the
// devices' Crash handlers make, in the depth-first order of those
// answers, it crashes the machine as CrashReset does, calls visit with
// the answers while the post-crash state is in place, and puts the
// machine and every device back as it found them. The answers slice is
// the probe's and valid only during the call. Nothing the probe runs
// declares a footprint, and the era's chooser is not asked.
//
// ProbeCrash may be called between the steps of a running era, as the
// explorer does at a "sched" draw: no thread runs while it does.
func (m *Machine) ProbeCrash(visit func(answers []CrashAnswer)) {
	restores := m.restores[:0]
	for _, d := range m.devices {
		restores = append(restores, d.Save())
	}
	m.restores = restores
	chooser, red := m.chooser, m.red
	p := &m.probe
	p.answers = p.answers[:0]
	m.chooser, m.red = p, nil
	defer func() { m.chooser, m.red = chooser, red }()
	for {
		p.pos = 0
		m.crash()
		p.answers = p.answers[:p.pos]
		visit(p.answers)
		m.version--
		for _, r := range restores {
			r()
		}
		if !p.next() {
			return
		}
	}
}

// crashProbe is ProbeCrash's chooser: a depth-first enumeration of the
// crash-time answer vectors, replaying a prefix and extending it with
// option 0.
type crashProbe struct {
	answers []CrashAnswer
	pos     int
}

// Choose implements Chooser.
func (p *crashProbe) Choose(n int, tag string) int {
	if p.pos < len(p.answers) && p.answers[p.pos].N == n {
		p.pos++
		return p.answers[p.pos-1].Chosen
	}
	p.answers = append(p.answers[:p.pos], CrashAnswer{N: n, Tag: tag})
	p.pos++
	return 0
}

// next advances to the next answer vector, false when there is none.
func (p *crashProbe) next() bool {
	for n := len(p.answers); n > 0; n-- {
		if a := &p.answers[n-1]; a.Chosen+1 < a.N {
			a.Chosen++
			p.answers = p.answers[:n]
			return true
		}
	}
	return false
}

// CrashChoose resolves crash-time nondeterminism from inside a
// Device.Crash handler — e.g. which prefix of an unsynced file tail
// survives a torn crash. No thread is running during CrashReset, so the
// choice cannot go through T.Choose; it is resolved by the chooser of
// the era that just crashed (RunEra leaves it installed). Outside any
// era (unit tests driving CrashReset directly) there is no chooser and
// the first option is taken, preserving the deterministic default.
// An out-of-range answer is taken as 0, the option ScriptChooser gives
// once its script is exhausted, so replay and minimization stay valid.
// (ScriptChooser itself maps an out-of-range entry c ≥ n to n−1 and
// c < 0 to 0, so it never gives this method one.)
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

	m.chooser, m.allowCrash = chooser, allowCrash
	m.eraStart = m.steps
	m.failure = nil
	m.alive = 0
	if m.red != nil {
		m.red.first = true
	}

	m.spawn(main)

	for {
		choice, n := m.handed, m.handedN
		m.handedN = 0
		if n == 0 {
			if m.failure != nil {
				m.killAll()
				return EraResult{Outcome: Violation, Err: m.failure}
			}
			if choice, n = m.draw(); n == 0 {
				if m.alive == 0 {
					return EraResult{Outcome: Done}
				}
				m.Failf("deadlock: %d thread(s) blocked with no runnable thread", m.alive)
				m.killAll()
				return EraResult{Outcome: Violation, Err: m.failure}
			}
		}
		if n < 0 {
			m.killAll()
			return EraResult{Outcome: Stopped}
		}
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

		th := m.ready[choice]
		if m.opts.Observer != nil {
			m.opts.Observer.Scheduled(th.id)
		}
		m.resume(th)

		if m.steps-m.eraStart > m.opts.MaxSteps && m.failure == nil {
			m.Failf("step budget exceeded (%d steps): possible infinite loop or livelock", m.opts.MaxSteps)
		}
	}
}

// draw is the scheduler's one draw: a "sched" choice over the runnable
// threads, which it leaves in m.ready, plus a last option to crash when
// the era allows it. n is the number of options, 0 when no thread is
// runnable, and then nothing is drawn; -1 when the Reducer stopped the
// era instead. Under a Reducer, a picked thread starts its transition's
// footprint.
func (m *Machine) draw() (choice, n int) {
	ready := m.runnable()
	if m.red != nil && !m.tellReducer(ready) {
		return -1, -1
	}
	if n = len(ready); n == 0 {
		return 0, 0
	}
	if m.allowCrash {
		n++
	}
	choice = m.chooser.Choose(n, "sched")
	if m.red != nil && choice >= 0 && choice < len(ready) {
		m.red.tr.start(ready[choice].id, !ready[choice].declared)
	}
	return choice, n
}

// tellReducer hands the Reducer the transition that just ran and the
// threads the draw chooses among. It reports false when the Reducer
// stops the era, which it can only do while a thread is runnable.
func (m *Machine) tellReducer(ready []*thread) bool {
	r := m.red
	ids := r.ids[:0]
	for _, th := range ready {
		ids = append(ids, th.id)
	}
	r.ids = ids
	ran := &r.tr
	if r.first {
		ran, r.first = nil, false
	}
	return m.opts.Reducer.Sched(ran, ids, m.allowCrash) || len(ready) == 0
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
	th := &thread{id: TID(len(m.threads)), status: statusReady, fn: fn, declared: true}
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
	// declared says the step the thread waits to take declares its
	// footprint (StepDeclared), as does a thread's start: its first
	// transition is Go code, which declares what it shares.
	declared bool

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

// Step marks an atomic step boundary: the scheduler picks who runs next.
// Device packages call this exactly once per primitive, before applying
// the primitive's effect. tag names the primitive for readers of the
// call site. A step taken with Step declares nothing: the transition it
// starts is global (see Footprint).
//
// The thread makes the scheduler's draw itself, on its own carrier: when
// the draw picks it again it goes on without parking, which is most
// steps and saves two coroutine switches each. Any other answer — another
// thread, a crash, out of range — it parks on and hands to RunEra, which
// acts on it without drawing again. A step past the budget, or after a
// recorded failure, draws nothing and parks, for RunEra to end the era.
func (t *T) Step(tag string) {
	t.th.declared = false
	t.step()
}

// StepDeclared is Step for a primitive that declares, with Touch right
// after StepDeclared returns, everything its effect touches.
func (t *T) StepDeclared(tag string) {
	t.th.declared = true
	t.step()
}

func (t *T) step() {
	m := t.m
	if !t.th.dead {
		m.steps++
		if m.steps-m.eraStart <= m.opts.MaxSteps && m.failure == nil {
			c, n := m.draw()
			if c >= 0 && c < len(m.ready) && m.ready[c] == t.th {
				if m.opts.Observer != nil {
					m.opts.Observer.Scheduled(t.th.id)
				}
				return
			}
			m.handed, m.handedN = c, n
		}
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

// Tracing reports whether the thread's machine has a trace attached. A
// call site whose arguments cost something to box guards its Tracef with
// it, so an untraced execution evaluates none of them.
func (t *T) Tracing() bool { return t.m.Tracing() }

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
// Spawning is one atomic step. It touches only the thread table: a
// spawn commutes with every step but another spawn, whose thread would
// take its ID.
func (t *T) Go(fn func(t *T)) TID {
	t.StepDeclared("go")
	t.m.Touch(threadsObj, Write)
	tid := t.m.spawn(fn)
	if r := t.m.red; r != nil {
		r.tr.spawned = tid
	}
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
	t.StepDeclared("rand")
	t.m.Touch(randObj, Write) // a RandPolicy answers by call index
	n := bound
	const maxEnum = 1 << 20
	if n > maxEnum {
		n = maxEnum
	}
	v := uint64(t.m.chooser.Choose(int(n), "rand"))
	if t.Tracing() {
		t.Tracef("rand(%d) = %d", bound, v)
	}
	return v
}

// threadsObj is the thread table, which spawns write.
var threadsObj = StaticObj()

// randObj orders RandUint64 calls: under a per-call-index policy the
// value one returns depends on how many came before it.
var randObj = StaticObj()

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
