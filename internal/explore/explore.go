// Package explore is the executable stand-in for Perennial's Theorem 2
// (recovery forward simulation): a stateless model checker that
// enumerates thread interleavings and crash points of an implementation
// running on the modeled machine, runs the recovery procedure after
// every crash (including crashes during recovery, exercising the
// idempotence side condition of §5.5), and checks every execution's
// history for concurrent recovery refinement against the specification.
//
// Where the paper proves the refinement once for all executions with
// Hoare triples, the explorer checks the same judgment on every
// execution in a bounded space, and the companion capability runtime in
// internal/core enforces the per-step ghost rules (Table 1) along the
// way. A randomized stress mode extends coverage beyond the systematic
// bound.
//
// # Search model
//
// Every source of nondeterminism — which thread steps, whether a crash
// is injected, fault and random choices — is one call to the machine's
// Chooser, so an execution is fully determined by its choice sequence
// and the search space is the tree of those sequences. The systematic
// phase enumerates that tree depth-first, re-executing the scenario
// from scratch for each sequence (stateless search, in the style of
// VeriSoft/CHESS/dBug): a dfsChooser replays a recorded prefix and
// extends it with the first option it has not covered, then backtracks
// the deepest choice point with untried options.
//
// One search is one sequential DFS, so its counterexample is the
// DFS-preorder least failing execution and every figure of its report
// is a function of the scenario and the options. Every execution builds
// a fresh machine, so searches of different scenarios can run at once
// (a suite's entries do) without sharing checked state.
//
// When a Scenario provides a Fingerprint hook, revisited crash-boundary
// states are pruned via a fingerprint table: after CrashReset all
// volatile state is dead by construction, so the suffix behavior is a
// function of the fingerprinted boundary state and an
// already-enumerated recovery subtree need not be re-explored.
//
// Within an era, wakeup trees and sleep sets (sleep.go, wakeup.go) run
// one execution per order of the dependent transitions: the machine
// reports each transition's thread and declared footprint, a draw runs
// another thread only where race analysis found that order unexplored,
// and a thread whose next transition was already explored from an
// equivalent state is not scheduled again. Options.NoReduce turns both
// reductions off, and SelfCheck mechanically witnesses that they change
// neither a scenario's verdict nor, for a complete search, its
// outcomes. See DESIGN.md "The checker" for the soundness arguments and
// docs/CHECKING.md for the user-facing handbook.
package explore

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Harness is handed to scenario workloads for recording operations in
// the history. Ops wrap the implementation call so that invocations and
// responses (or the absence of a response when a crash kills the
// thread) are recorded faithfully.
type Harness struct {
	rec history.Recorder
	m   *machine.Machine // the execution's, for the history's footprint
}

// historyObj is the recorded history in footprints: invocations
// commute, responses commute, and an invocation and a response keep
// their real-time order.
var historyObj = machine.StaticObj()

func (h *Harness) invoke(op spec.Op) history.OpID {
	if h.m != nil {
		h.m.Touch(historyObj, machine.Invoke)
	}
	return h.rec.Invoke(op)
}

func (h *Harness) ret(id history.OpID, ret spec.Ret) {
	if h.m != nil {
		h.m.Touch(historyObj, machine.Return)
	}
	h.rec.Return(id, ret)
}

// Op records op's invocation, runs impl, and records its response. If a
// crash kills the thread inside impl, the response is never recorded and
// the operation stays pending at the crash, exactly as the checker
// expects.
func (h *Harness) Op(op spec.Op, impl func() spec.Ret) spec.Ret {
	id := h.invoke(op)
	ret := impl()
	h.ret(id, ret)
	return ret
}

// OpMaybe records op's invocation and runs impl; when impl reports the
// client never got a response (ok=false — e.g. a replicated service
// whose every node is down), no return is recorded and the operation
// stays pending in the history. The checker then treats it exactly as
// an op cut off by a crash: it may have taken effect or not, and no
// response value constrains the spec.
func (h *Harness) OpMaybe(op spec.Op, impl func() (spec.Ret, bool)) (spec.Ret, bool) {
	id := h.invoke(op)
	ret, ok := impl()
	if ok {
		h.ret(id, ret)
	}
	return ret, ok
}

// History exposes the recorded history (for custom scenario checks).
func (h *Harness) History() history.History { return h.rec.History() }

// Scenario describes one checkable system: how to build its world on a
// fresh machine, the concurrent workload, the recovery procedure, and an
// optional post-recovery observation phase.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Spec is the specification the history must refine.
	Spec spec.Interface
	// MachineOpts configures each execution's machine.
	MachineOpts machine.Options
	// Setup builds devices and durable state on a fresh machine and
	// returns a world handle passed to the other phases. It runs outside
	// any thread (no machine steps).
	Setup func(m *machine.Machine) any
	// Init runs as a crash-free era before the workload, modeling the
	// paper's requirement that the caller run Init before any operations
	// (§8.1). Crashes are only injected once the workload starts.
	Init func(t *machine.T, w any)
	// Main is the workload era: it runs as thread 0 and typically spawns
	// worker threads that perform harness-recorded operations.
	Main func(t *machine.T, w any, h *Harness)
	// Recover runs as a fresh era after every crash. nil means the system
	// needs no recovery.
	Recover func(t *machine.T, w any)
	// Post runs after the workload (and any crash/recovery cycles) as a
	// crash-free observation era, typically reading back state through
	// harness-recorded operations.
	Post func(t *machine.T, w any, h *Harness)
	// MaxCrashes bounds the number of injected crashes per execution.
	MaxCrashes int
	// RandPolicy, when non-nil, resolves "rand" choices (machine
	// RandUint64 calls) deterministically per call index instead of
	// branching the search on them. Use it for random *name allocation*
	// (Mailboat's spool names): exploring every possible random name
	// multiplies the search space without exercising new logic, and
	// unbounded retry-on-collision loops would otherwise give the DFS an
	// infinite choice tree. A cycling policy (call % n) still exercises
	// the collision-retry path whenever the counter wraps onto a taken
	// name. Applied in systematic, stress, and replay modes alike so
	// counterexample choices stay aligned.
	RandPolicy func(call, n int) int
	// Invariant, if non-nil, is checked between eras (after Setup, after
	// each crash+recovery, and at the end); it may inspect durable state
	// directly. Returning an error is a violation.
	Invariant func(m *machine.Machine, w any) error
	// Fingerprint opts the scenario into crash-boundary state dedup. It
	// must append a canonical encoding of every piece of crash-surviving
	// state the world holds OUTSIDE registered machine devices (fault
	// policy budgets, counters the properties read, ...) to b and
	// return it; device state is appended automatically, by each
	// device's AppendDurable. A scenario whose crash-surviving state
	// lives entirely in registered devices returns b unchanged.
	// nil disables dedup for the scenario (the safe default: dedup with
	// an incomplete fingerprint can unsoundly prune distinct states).
	Fingerprint func(w any, b []byte) []byte
}

// Counterexample captures one failing execution.
type Counterexample struct {
	// Choices is the decision sequence that reproduces the execution:
	// ReplayCx(s, Choices) runs it again.
	Choices []int
	// Schedule is the structured form of the same execution: the exact
	// sequence of thread steps, crash points, and injected-fault /
	// random choices, with era boundaries.
	Schedule Schedule
	// Trace is the machine's event trace.
	Trace []string
	// History is the recorded operation history.
	History history.History
	// Reason describes the failure.
	Reason string
}

// Format renders the counterexample for humans.
func (c *Counterexample) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reason: %s\n", c.Reason)
	fmt.Fprintf(&b, "choices: %v\n", c.Choices)
	if len(c.Schedule) > 0 {
		fmt.Fprintf(&b, "schedule (%d decisions, %d crash(es)):\n",
			len(c.Schedule), c.Schedule.Crashes())
		b.WriteString(c.Schedule.Format())
	}
	b.WriteString("history:\n")
	b.WriteString(c.History.Format())
	b.WriteString("trace:\n")
	for _, l := range c.Trace {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String()
}

// Report summarizes an exploration.
type Report struct {
	// Scenario is the scenario name.
	Scenario string
	// Executions is the number of executions run.
	Executions int
	// CrashedExecutions counts executions with at least one crash.
	CrashedExecutions int
	// Complete is true when the systematic search exhausted the whole
	// bounded space (rather than hitting the execution budget).
	Complete bool
	// Counterexample is the first failure found, nil if none.
	Counterexample *Counterexample
	// Err is a failure of the checker's own, not the scenario's: a
	// crash reached another boundary than the one evaluated in place for
	// it. It stops the search, and the report then has no verdict: no
	// Counterexample, Complete false, and OK false.
	Err error
	// CheckedStates sums the refinement checker's explored states.
	CheckedStates int
	// Stats carries exploration statistics.
	Stats Stats
}

// Stats summarizes how the exploration went, for tuning budgets and
// spotting pathological scenarios (e.g. a depth histogram skewed to
// the step bound means executions are being truncated, not explored).
type Stats struct {
	// Duration is the wall-clock time of the whole exploration.
	Duration time.Duration
	// ExecsPerSec and StatesPerSec are derived throughput rates over
	// the executions run.
	ExecsPerSec  float64
	StatesPerSec float64
	// Depth records the choice-sequence depth of each execution.
	Depth *obs.Histogram
	// DedupActive reports whether crash-boundary dedup ran: the
	// scenario provided a Fingerprint hook and Options.NoReduce was off.
	DedupActive bool
	// PrunedStates counts the crash states skipped without an execution
	// because another prefix had already claimed their boundary's
	// recovery subtree.
	PrunedStates int
	// CrashStatesEvaluated counts the crash states whose boundary was
	// evaluated in place, at the draw that offered the crash.
	CrashStatesEvaluated int
	// DistinctBoundaries is the number of distinct crash-boundary
	// fingerprints claimed (the dedup table's size).
	DistinctBoundaries int
	// Reseats counts choice points at which a replayed prefix offered a
	// different number of options than when it was recorded. An
	// execution is a function of its choices, so this is 0 unless state
	// leaks into the model from outside them: harness nondeterminism
	// (map iteration, say), or something one execution left behind for
	// the next.
	Reseats int
	// Slept counts the "sched" options the sleep sets skipped: threads
	// whose next transition was already explored from an equivalent
	// state. SleepBlocked counts the executions stopped, unchecked, at a
	// draw whose every option slept: wakeup trees leave none but where a
	// data choice inside a wakeup sequence takes another answer.
	Slept, SleepBlocked int
	// VerdictsDistinct counts the refinement checks judged afresh, and
	// VerdictsReused those the search's checker answered from its
	// verdict memo because it had accepted the same history before.
	VerdictsDistinct, VerdictsReused int
}

// String renders the statistics on one line.
func (st Stats) String() string {
	p50 := st.Depth.Quantile(0.50)
	p99 := st.Depth.Quantile(0.99)
	s := fmt.Sprintf("%.3fs, %.0f execs/s, %.0f states/s, depth p50=%.0f p99=%.0f",
		st.Duration.Seconds(), st.ExecsPerSec, st.StatesPerSec, p50, p99)
	if st.DedupActive {
		s += fmt.Sprintf(", dedup: %d boundaries, %d pruned, crash states: %d evaluated in place",
			st.DistinctBoundaries, st.PrunedStates, st.CrashStatesEvaluated)
	}
	if st.Slept > 0 || st.SleepBlocked > 0 {
		s += fmt.Sprintf(", sleep: %d slept, %d blocked", st.Slept, st.SleepBlocked)
	}
	if st.VerdictsReused > 0 {
		s += fmt.Sprintf(", verdicts: %d distinct, %d reused", st.VerdictsDistinct, st.VerdictsReused)
	}
	if st.Reseats > 0 {
		s += fmt.Sprintf(", %d choice points RESEATED (an execution is not a function of its choices)", st.Reseats)
	}
	return s
}

// OK reports whether the search found no violation and raised no
// checker error.
func (r *Report) OK() bool { return r.Counterexample == nil && r.Err == nil }

// String renders a one-line summary.
func (r *Report) String() string {
	status := "OK"
	switch {
	case r.Err != nil:
		status = "CHECKER ERROR"
	case r.Counterexample != nil:
		status = "VIOLATION"
	}
	complete := "complete"
	if !r.Complete {
		complete = "budget-bounded"
	}
	return fmt.Sprintf("%s: %s (%d executions, %d crashed, %s, %d checker states)",
		r.Scenario, status, r.Executions, r.CrashedExecutions, complete, r.CheckedStates)
}

// Options configures an exploration.
type Options struct {
	// MaxExecutions bounds the systematic search. 0 means 20000.
	MaxExecutions int
	// Workers is ignored: Run is one sequential search. It remains
	// only because bench/check.go still sets it.
	Workers int
	// NoReduce turns both reductions off: crash-boundary state dedup,
	// even for scenarios that provide a Fingerprint hook, and wakeup
	// trees with sleep sets — the escape hatch for a suspected
	// fingerprint bug, hash collision or undeclared access
	// (perennial-check -noreduce).
	NoReduce bool
	// StressExecutions adds randomized executions after (or instead of)
	// the systematic search.
	StressExecutions int
	// StressSeed seeds the randomized mode.
	StressSeed int64
	// Progress, when non-nil with a Sink, streams live telemetry of the
	// systematic phase (execs/s, frontier depth, dedup hit rate, budget
	// ETA). The sampler only reads atomic counters, so reports are
	// identical with and without it (perennial-check -progress).
	Progress *ProgressOptions
}

// Run performs a systematic DFS over the scenario's choice space, with
// crash-boundary dedup and wakeup trees unless Options.NoReduce, then
// optional randomized stress, and returns a report.
func Run(s *Scenario, opts Options) *Report { return run(s, opts, nil) }

// run is Run, collecting the outcome of every checked execution into
// outcomes when it is not nil (SelfCheck).
func run(s *Scenario, opts Options, outcomes *outcomeSet) *Report {
	if opts.MaxExecutions == 0 {
		opts.MaxExecutions = 20000
	}
	rep := &Report{Scenario: s.Name, Stats: Stats{Depth: obs.NewHistogram(obs.DepthBuckets)}}
	start := time.Now()
	defer func() {
		rep.Stats.Duration = time.Since(start)
		if sec := rep.Stats.Duration.Seconds(); sec > 0 {
			rep.Stats.ExecsPerSec = float64(rep.Executions) / sec
			rep.Stats.StatesPerSec = float64(rep.CheckedStates) / sec
		}
	}()

	x := runner{outcomes: outcomes}
	defer x.carriers.Release()
	runSystematic(&x, s, opts, rep)
	if rep.OK() && opts.StressExecutions > 0 {
		x.stress(s, opts, rep)
	}
	if rep.Counterexample != nil {
		rep.Counterexample = retrace(s, rep.Counterexample)
	}
	return rep
}

// retrace fills in what the search left out. A searched execution
// attaches no trace and records no structured schedule (see runOne);
// executions are a deterministic function of their choice sequence, so
// replaying the failing one once regenerates both. Should the replay
// not fail — the scenario leaks nondeterminism the Chooser does not
// control — the search's own finding is kept and says so.
func retrace(s *Scenario, cx *Counterexample) *Counterexample {
	if full := ReplayCx(s, cx.Choices); full != nil {
		return full
	}
	cx.Reason += " (the failure did not reproduce on replay, so there is no trace: the scenario is nondeterministic)"
	return cx
}

// stressCrashWeight makes a stress execution crash with probability
// 1/stressCrashWeight at each step when crashes are allowed.
const stressCrashWeight = 20

// stress runs opts.StressExecutions randomized executions, the i-th
// seeded with StressSeed+i, and stops at the first that fails.
func (x *runner) stress(s *Scenario, opts Options, rep *Report) {
	for i := range opts.StressExecutions {
		rc := machine.NewRandChooser(opts.StressSeed + int64(i))
		rc.CrashWeight = stressCrashWeight
		rc.CrashOption = s.MaxCrashes > 0
		rep.Executions++
		if cx := x.runOne(s, rc, rep, false); cx != nil {
			rep.Counterexample = cx
			return
		}
	}
}

// runner is what an owner of executions — one Run, ReplayCx or
// Minimize call — keeps from one execution to the next: the carriers
// its machines' threads run on, with the stacks they have grown, and
// the buffers of the schedule recorder, the history harness and the
// refinement checker. Nothing an execution can
// observe lives here. A runner belongs to one goroutine, which releases
// the carriers before returning (none of their goroutines is left); the
// zero value is ready to use.
type runner struct {
	carriers machine.Carriers
	rec      scheduleRecorder
	h        Harness
	chk      history.Checker
	outcomes *outcomeSet // SelfCheck's, when it runs
}

// runOne executes the scenario once under the given chooser and checks
// the resulting history. It returns a counterexample on violation.
// A searching chooser with a dedupRun enables crash-boundary dedup: the
// chooser evaluates crash states in place through it and runs only
// those whose boundary no other choice prefix owns, and each crash the
// execution takes is confirmed at its boundary (an error stops the
// execution, in dd.err).
//
// Only a traced run (ReplayCx) attaches the machine trace and records
// the structured schedule; a searched execution keeps just its choice
// sequence, and its counterexample carries no Trace or Schedule until
// retrace replays it.
func (x *runner) runOne(s *Scenario, ch machine.Chooser, rep *Report, traced bool) *Counterexample {
	// The recorder sits at the inner-chooser position (below any
	// RandPolicy), so its choice sequence is exactly what ScriptChooser
	// replays, and doubles as the machine Observer for thread identity.
	rec := &x.rec
	*rec = scheduleRecorder{inner: ch, traced: traced, choices: rec.choices[:0], steps: rec.steps[:0]}
	chooser := machine.Chooser(rec)
	var rpc *randPolicyChooser
	if s.RandPolicy != nil {
		rpc = &randPolicyChooser{inner: rec, policy: s.RandPolicy, rec: rec}
		chooser = rpc
	}
	mo := s.MachineOpts
	switch {
	case !traced:
		mo.Observer, mo.TraceDepth = nil, 0
	case mo.TraceDepth == 0:
		mo.Observer, mo.TraceDepth = rec, machine.TraceAll
	default:
		mo.Observer = rec // the scenario bounds its own trace
	}
	d, _ := ch.(*dfsChooser)
	var dd *dedupRun
	if d != nil {
		dd = d.dd
		if d.reduce {
			mo.Reducer = d
		}
	}
	m := machine.NewOn(&x.carriers, mo)
	defer func() { rep.Stats.Depth.Observe(float64(len(rec.choices))) }()
	w := s.Setup(m)
	h := &x.h
	h.rec.Reset()
	h.m = m
	if dd != nil {
		dd.m, dd.w, dd.h, dd.rpc = m, w, h, rpc
		dd.hist, dd.histN = dd.hist[:0], 0
	}

	// A counterexample owns its slices (nil when empty, as they always
	// were): the recorders' buffers go on to the runner's next
	// execution, and Trace may hand out the machine's ring itself.
	fail := func(reason string) *Counterexample {
		return &Counterexample{
			Choices:  append([]int(nil), rec.choices...),
			Schedule: append(Schedule(nil), rec.steps...),
			Trace:    append([]string(nil), m.Trace()...),
			History:  append(history.History(nil), h.rec.History()...),
			Reason:   reason,
		}
	}
	checkInv := func(when string) *Counterexample {
		if s.Invariant == nil {
			return nil
		}
		if err := s.Invariant(m, w); err != nil {
			return fail(fmt.Sprintf("invariant violated %s: %v", when, err))
		}
		return nil
	}

	if s.Init != nil {
		rec.era("init")
		res := m.RunEra(chooser, false, func(t *machine.T) { s.Init(t, w) })
		if res.Outcome == machine.Violation {
			return fail("machine violation in init phase: " + res.Err.Error())
		}
		if res.Outcome == machine.Stopped {
			return nil // asleep: an explored execution covers this one
		}
	}
	if cx := checkInv("after setup"); cx != nil {
		return cx
	}

	crashesLeft := s.MaxCrashes
	if dd != nil {
		dd.crashesLeft = crashesLeft
	}
	rec.era("main")
	res := m.RunEra(chooser, crashesLeft > 0, func(t *machine.T) { s.Main(t, w, h) })
	crashed := false
	for res.Outcome == machine.Crashed {
		if !crashed {
			crashed = true
			rep.CrashedExecutions++
		}
		crashesLeft--
		h.rec.Crash()
		m.CrashReset()
		if dd != nil {
			if dd.err = dd.confirmBoundary(d); dd.err != nil {
				return nil
			}
			dd.crashesLeft = crashesLeft
		}
		if s.Recover == nil {
			res = machine.EraResult{Outcome: machine.Done}
			break
		}
		rec.era("recovery")
		res = m.RunEra(chooser, crashesLeft > 0, func(t *machine.T) { s.Recover(t, w) })
		if res.Outcome == machine.Done {
			if cx := checkInv("after recovery"); cx != nil {
				return cx
			}
		}
	}
	if res.Outcome == machine.Violation {
		return fail("machine violation: " + res.Err.Error())
	}
	if res.Outcome == machine.Stopped {
		return nil
	}

	if s.Post != nil {
		rec.era("post")
		res = m.RunEra(chooser, false, func(t *machine.T) { s.Post(t, w, h) })
		if res.Outcome == machine.Violation {
			return fail("machine violation in post phase: " + res.Err.Error())
		}
		if res.Outcome == machine.Stopped {
			return nil
		}
	}

	if cx := checkInv("at end"); cx != nil {
		return cx
	}

	reused := x.chk.Reused()
	chk := x.chk.Check(s.Spec, h.rec.History(), history.Options{})
	rep.CheckedStates += chk.StatesExplored
	if x.chk.Reused() > reused {
		rep.Stats.VerdictsReused++
	} else {
		rep.Stats.VerdictsDistinct++
	}
	if !chk.OK {
		return fail("refinement failure: " + chk.Reason)
	}
	if x.outcomes != nil {
		x.outcomes.add(m, h.rec.History())
	}
	return nil
}

// dfsChooser drives a depth-first enumeration of choice sequences. Each
// execution replays a prefix of recorded choices and extends with the
// first option it has not covered; next() advances the last choice
// point with untried options, backtracking exhausted suffixes.
//
// With reduce set it is also the machine's Reducer and keeps wakeup
// trees and sleep sets (sleep.go, wakeup.go): a "sched" option runs only
// when race analysis asks for it, and is skipped, not removed, so choice
// indices keep their meaning.
type dfsChooser struct {
	points []choicePoint
	pos    int
	// reseats counts replayed points that had to be re-seated (see
	// Choose and Stats.Reseats).
	reseats int

	reduce bool
	sleepSets
	races
	crashStates
}

type choicePoint struct {
	n      int
	chosen int
	tag    string
	// si is 1 + the index in sleepSets.scheds of the point's part of
	// the reduction, for a "sched" point under reduction (0: none);
	// lastOn is the index of the last such point at or before this one
	// (-1: none); start is the option a data choice took first.
	si, lastOn, start int32
}

func (d *dfsChooser) reset() {
	d.pos, d.lastSched, d.open, d.crashAt = 0, -1, -1, -1
	d.nev, d.keep, d.eraLo = 0, len(d.evs), 0
}

// Choose implements machine.Chooser.
func (d *dfsChooser) Choose(n int, tag string) int {
	if d.pos < len(d.points) {
		if d.points[d.pos].n != n {
			// The machine must be deterministic given prior choices; a
			// mismatch indicates harness nondeterminism (e.g. map
			// iteration leaking into the model). Re-seat the point,
			// and say so.
			d.reseats++
			d.points = d.points[:d.pos]
			d.trim(d.pos - 1)
			d.trimEvents(d.pos)
			d.nev = min(d.nev, len(d.evs))
			d.points = append(d.points, choicePoint{n: n, tag: tag})
			d.placed(d.pos)
		}
		c := d.points[d.pos].chosen
		d.chose(d.pos)
		d.pos++
		return c
	}
	d.points = append(d.points, choicePoint{n: n, tag: tag})
	p := &d.points[d.pos]
	switch {
	case tag == "sched" && d.pend.on:
		d.scheds = append(d.scheds, d.pend)
		p.si, p.chosen = int32(len(d.scheds)), d.pend.first
		d.pend.on = false
	case tag != "sched" && d.gnode != nil && d.gans < len(d.gnode.ans):
		// A wakeup-tree event's data choice: its recorded answer first.
		if a := d.gnode.ans[d.gans]; int(a.n) == n {
			p.chosen, p.start = int(a.c), a.c
			d.gans++
		} else {
			d.gnode = nil
		}
	}
	d.placed(d.pos)
	d.chose(d.pos)
	d.pos++
	c := p.chosen
	if s := d.sched(p); s != nil && s.cur >= 0 {
		// The fresh point's first option is its crash: run the live state
		// evaluate picked.
		d.pushAnswers(d.leaves[s.cur], 0)
	}
	return c
}

// next advances to the next unexplored choice sequence, returning false
// when the space is exhausted.
func (d *dfsChooser) next() bool {
	// Discard choice points beyond those actually consumed this run.
	d.points = d.points[:d.pos]
	d.cut()
	d.gnode = nil
	for len(d.points) > 0 {
		i := len(d.points) - 1
		last := &d.points[i]
		d.trim(i)
		if j := d.answerOf(i); j >= 0 {
			if d.nextLeaf(j, i) {
				d.trimEvents(d.frontier)
				return true
			}
			continue // back at j, whose crash option was its last
		}
		if c := d.nextOption(last); c < last.n {
			last.chosen = c
			d.frontier = i
			d.trimEvents(i)
			if d.enterCrash(i) {
				d.dueAfter(i)
				return true
			}
			d.crashed(i)
		}
		d.points = d.points[:i]
	}
	return false
}

// randPolicyChooser resolves "rand"-tagged choices with a deterministic
// per-call policy and forwards everything else. Policy-resolved choices
// are reported to the schedule recorder (they are part of the
// structured schedule) but not to the replayable choice sequence.
type randPolicyChooser struct {
	inner  machine.Chooser
	policy func(call, n int) int
	rec    *scheduleRecorder
	calls  int
}

// Choose implements machine.Chooser.
func (r *randPolicyChooser) Choose(n int, tag string) int {
	if tag == "rand" {
		c := r.policy(r.calls, n) % n
		if c < 0 {
			c = 0
		}
		r.calls++
		if r.rec != nil {
			r.rec.policyChoice(n, c)
		}
		return c
	}
	return r.inner.Choose(n, tag)
}

// ReplayCx runs the scenario once with an explicit choice script (e.g.
// a counterexample's Choices) and returns the resulting counterexample
// — schedule, trace, and history included — or nil when the script no
// longer fails.
func ReplayCx(s *Scenario, choices []int) *Counterexample {
	var x runner
	defer x.carriers.Release()
	return x.runOne(s, &machine.ScriptChooser{Script: choices}, &Report{}, true)
}

// Minimize shrinks a failing choice sequence (delta-debugging lite): it
// repeatedly tries truncating the suffix and lowering individual
// choices to smaller options, keeping any variant that still fails.
// ScriptChooser answers 0 once a script is exhausted and clamps an
// out-of-range entry into range — c ≥ n to n−1, which at a "sched" point
// that allows crashes is the crash option, and c < 0 to 0 — so every
// candidate is a valid schedule. The result reproduces
// a failure (not necessarily the same one) and is usually much easier
// to read.
func Minimize(s *Scenario, choices []int) []int {
	var x runner
	defer x.carriers.Release()
	fails := func(c []int) bool {
		return x.runOne(s, &machine.ScriptChooser{Script: c}, &Report{}, false) != nil
	}
	if !fails(choices) {
		return choices
	}
	cur := append([]int{}, choices...)

	// Truncate the suffix as far as possible (binary search on length).
	lo, hi := 0, len(cur) // invariant: fails(cur[:hi])
	for lo < hi {
		mid := (lo + hi) / 2
		if fails(cur[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cur = cur[:hi]

	// Lower individual choices toward 0.
	for i := range cur {
		for cur[i] > 0 {
			trial := append([]int{}, cur...)
			trial[i]--
			if !fails(trial) {
				break
			}
			cur = trial
		}
	}

	// A final truncation pass (lowering may have enabled shorter runs).
	for len(cur) > 0 && fails(cur[:len(cur)-1]) {
		cur = cur[:len(cur)-1]
	}
	return cur
}
