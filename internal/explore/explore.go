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
// extends it with option 0, then backtracks the deepest choice point
// with untried options.
//
// The enumeration runs on Options.Workers workers (default
// GOMAXPROCS). The tree is partitioned by schedule prefix: each job
// pins a prefix, and a worker that notices starving peers donates the
// untried siblings of its shallowest open choice point as new jobs —
// an exact partition, so no execution is lost or explored twice. Every
// execution builds a fresh machine, so checked code never shares state
// across workers. Counterexamples are canonicalized to the DFS-preorder
// least candidate, which makes verdicts and counterexamples independent
// of worker count for searches that run to completion.
//
// When a Scenario provides a Fingerprint hook (and every registered
// device implements machine.Fingerprinter), revisited crash-boundary
// states are pruned via a lock-striped fingerprint table: after
// CrashReset all volatile state is dead by construction, so the suffix
// behavior is a function of the fingerprinted boundary state and an
// already-enumerated recovery subtree need not be re-explored.
// Options.NoDedup is the escape hatch, and SelfCheckDedup mechanically
// witnesses that pruning does not change a scenario's verdict. See
// DESIGN.md "The checker" for the soundness argument and
// docs/CHECKING.md for the user-facing handbook.
package explore

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
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
}

// Op records op's invocation, runs impl, and records its response. If a
// crash kills the thread inside impl, the response is never recorded and
// the operation stays pending at the crash, exactly as the checker
// expects.
func (h *Harness) Op(op spec.Op, impl func() spec.Ret) spec.Ret {
	id := h.rec.Invoke(op)
	ret := impl()
	h.rec.Return(id, ret)
	return ret
}

// OpMaybe records op's invocation and runs impl; when impl reports the
// client never got a response (ok=false — e.g. a replicated service
// whose every node is down), no return is recorded and the operation
// stays pending in the history. The checker then treats it exactly as
// an op cut off by a crash: it may have taken effect or not, and no
// response value constrains the spec.
func (h *Harness) OpMaybe(op spec.Op, impl func() (spec.Ret, bool)) (spec.Ret, bool) {
	id := h.rec.Invoke(op)
	ret, ok := impl()
	if ok {
		h.rec.Return(id, ret)
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
	// latches, policy budgets, mirror control state, ...) to b and
	// return it; device state is appended automatically via
	// machine.Fingerprinter. A scenario whose crash-surviving state
	// lives entirely in fingerprintable devices returns b unchanged.
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
	// unique explored executions — stress retries that raced past an
	// already-found counterexample are excluded (see StressDiscarded).
	ExecsPerSec  float64
	StatesPerSec float64
	// Depth records the choice-sequence depth of each execution.
	Depth *obs.Histogram
	// Workers is the systematic-phase worker count actually used.
	Workers int
	// DedupActive reports whether crash-boundary dedup ran: the
	// scenario provided a Fingerprint hook, Options.NoDedup was off,
	// and every registered device was fingerprintable.
	DedupActive bool
	// PrunedStates counts executions cut at a crash boundary whose
	// recovery subtree another prefix had already claimed.
	PrunedStates int
	// DistinctBoundaries is the number of distinct crash-boundary
	// fingerprints claimed (the dedup table's size).
	DistinctBoundaries int
	// StressDiscarded counts stress executions that ran concurrently at
	// seed offsets above the winning counterexample's; they are real
	// work but not part of the deterministic result, so Executions and
	// the throughput rates exclude them.
	StressDiscarded int
	// Reseats counts choice points at which a replayed prefix offered a
	// different number of options than when it was recorded, summed
	// over workers. An execution is a function of its choices, so this
	// is 0 unless state leaks into the model from outside them: harness
	// nondeterminism (map iteration, say), or something one execution
	// left behind for the next.
	Reseats int
	// VerdictsDistinct counts the refinement checks judged afresh, and
	// VerdictsReused those a worker's checker answered from its verdict
	// memo because it had accepted the same history before; both are
	// summed over workers.
	VerdictsDistinct, VerdictsReused int
	// PerWorker is each systematic worker's share of the search.
	PerWorker []WorkerStats
}

// WorkerStats is one worker's share of the systematic search.
type WorkerStats struct {
	// Executions is the number of executions this worker ran.
	Executions int
	// Pruned is how many of them were cut by the dedup table.
	Pruned int
}

// String renders the statistics on one line.
func (st Stats) String() string {
	p50 := st.Depth.Quantile(0.50)
	p99 := st.Depth.Quantile(0.99)
	s := fmt.Sprintf("%.3fs, %.0f execs/s, %.0f states/s, depth p50=%.0f p99=%.0f, workers=%d",
		st.Duration.Seconds(), st.ExecsPerSec, st.StatesPerSec, p50, p99, st.Workers)
	if st.DedupActive {
		s += fmt.Sprintf(", dedup: %d boundaries, %d pruned", st.DistinctBoundaries, st.PrunedStates)
	}
	if st.VerdictsReused > 0 {
		s += fmt.Sprintf(", verdicts: %d distinct, %d reused", st.VerdictsDistinct, st.VerdictsReused)
	}
	if st.StressDiscarded > 0 {
		s += fmt.Sprintf(", %d stress retries discarded", st.StressDiscarded)
	}
	if st.Reseats > 0 {
		s += fmt.Sprintf(", %d choice points RESEATED (an execution is not a function of its choices)", st.Reseats)
	}
	return s
}

// OK reports whether no violation was found.
func (r *Report) OK() bool { return r.Counterexample == nil }

// String renders a one-line summary.
func (r *Report) String() string {
	status := "OK"
	if !r.OK() {
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
	// MaxExecutions bounds the systematic search. 0 means 20000. The
	// budget is shared by all workers (each execution claims one slot),
	// so the number of executions run is independent of Workers.
	MaxExecutions int
	// Workers is the worker count of both phases. 0 means GOMAXPROCS.
	// With 1 worker the systematic search is the classic sequential
	// DFS; with more, the choice tree is partitioned by schedule prefix
	// and drained work-stealing style (see the package comment), and
	// the stress executions (each on its own machine, so independent)
	// are dealt out by seed offset. The counterexample reported is the
	// one with the smallest offset, whatever the scheduling.
	Workers int
	// NoDedup disables crash-boundary state dedup even for scenarios
	// that provide a Fingerprint hook — the escape hatch for suspected
	// fingerprint bugs or hash collisions (perennial-check -nodedup).
	NoDedup bool
	// StressExecutions adds randomized executions after (or instead of)
	// the systematic search.
	StressExecutions int
	// StressSeed seeds the randomized mode.
	StressSeed int64
	// Progress, when non-nil with a Sink, streams live telemetry of the
	// systematic phase (execs/s, frontier depth, dedup hit rate,
	// per-worker donations, budget ETA). The sampler is read-only over
	// lock-free counters, so verdicts and counterexamples are identical
	// with and without it (perennial-check -progress).
	Progress *ProgressOptions
}

// Run performs a systematic DFS over the scenario's choice space —
// parallelized across Options.Workers workers with optional
// crash-boundary dedup — then optional randomized stress, and returns a
// report.
func Run(s *Scenario, opts Options) *Report {
	if opts.MaxExecutions == 0 {
		opts.MaxExecutions = 20000
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &Report{Scenario: s.Name, Stats: Stats{Depth: obs.NewHistogram(obs.DepthBuckets), Workers: workers}}
	start := time.Now()
	defer func() {
		rep.Stats.Duration = time.Since(start)
		if sec := rep.Stats.Duration.Seconds(); sec > 0 {
			rep.Stats.ExecsPerSec = float64(rep.Executions) / sec
			rep.Stats.StatesPerSec = float64(rep.CheckedStates) / sec
		}
	}()

	search(s, opts, workers, rep)
	if rep.Counterexample != nil {
		rep.Counterexample = retrace(s, rep.Counterexample)
	}
	return rep
}

// search runs the systematic phase (prefix-partitioned parallel DFS),
// then the randomized stress, stopping at the first counterexample.
func search(s *Scenario, opts Options, workers int, rep *Report) {
	runSystematic(s, opts, workers, rep)
	if rep.Counterexample == nil && opts.StressExecutions > 0 {
		runStress(s, opts, workers, rep)
	}
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

// stressOne runs one randomized execution at seed offset i.
func (x *runner) stressOne(s *Scenario, opts Options, i int, rep *Report) *Counterexample {
	rc := machine.NewRandChooser(opts.StressSeed + int64(i))
	rc.CrashWeight = stressCrashWeight
	rc.CrashOption = s.MaxCrashes > 0
	return x.runOne(s, rc, rep, nil, false)
}

// runStress fans the stress executions across workers. Each worker
// accumulates into a private Report; the aggregates are summed and the
// smallest-offset counterexample wins (deterministic output).
//
// Executions counts only the unique contributing executions — offsets
// up to and including the winning counterexample's — which is what one
// worker runs. Executions other workers raced through at higher offsets
// before noticing the winner are discarded retries, reported in
// Stats.StressDiscarded instead of inflating the (otherwise
// nondeterministic) throughput numbers.
func runStress(s *Scenario, opts Options, workers int, rep *Report) {
	type result struct {
		offset int
		cx     *Counterexample
	}
	var mu sync.Mutex
	best := result{offset: -1}
	reps := make([]*Report, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// The depth histogram is lock-free, so workers share it.
		reps[w] = &Report{Stats: Stats{Depth: rep.Stats.Depth}}
		go func(w int) {
			defer wg.Done()
			var x runner
			defer x.carriers.Release()
			for i := w; i < opts.StressExecutions; i += workers {
				mu.Lock()
				stop := best.offset != -1 && best.offset < i
				mu.Unlock()
				if stop {
					return
				}
				reps[w].Executions++
				if cx := x.stressOne(s, opts, i, reps[w]); cx != nil {
					mu.Lock()
					if best.offset == -1 || i < best.offset {
						best = result{offset: i, cx: cx}
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ran := 0
	for _, r := range reps {
		ran += r.Executions
		rep.CrashedExecutions += r.CrashedExecutions
		rep.CheckedStates += r.CheckedStates
		rep.Stats.VerdictsDistinct += r.Stats.VerdictsDistinct
		rep.Stats.VerdictsReused += r.Stats.VerdictsReused
	}
	unique := ran
	if best.offset != -1 {
		// Workers cover disjoint offset strides and only stop once their
		// next offset exceeds the winner, so offsets 0..best.offset each
		// ran exactly once; everything beyond is a discarded retry.
		unique = best.offset + 1
	}
	rep.Executions += unique
	rep.Stats.StressDiscarded = ran - unique
	rep.Counterexample = best.cx
}

// runner is what an owner of executions — a search worker, a stress
// worker, one ReplayCx or Minimize call — keeps from one execution to
// the next: the carriers its machines' threads run on, with the stacks
// they have grown, and the buffers of the schedule recorder, the
// history harness and the refinement checker. Nothing an execution can
// observe lives here. A runner belongs to one goroutine, which releases
// the carriers before returning (none of their goroutines is left); the
// zero value is ready to use.
type runner struct {
	carriers machine.Carriers
	rec      scheduleRecorder
	h        Harness
	chk      history.Checker
}

// runOne executes the scenario once under the given chooser and checks
// the resulting history. It returns a counterexample on violation.
// A non-nil dd enables crash-boundary dedup: the execution may be cut
// short (dd.pruned) when it reaches a boundary state whose recovery
// subtree another choice prefix already enumerated.
//
// Only a traced run (ReplayCx) attaches the machine trace and records
// the structured schedule; a searched execution keeps just its choice
// sequence, and its counterexample carries no Trace or Schedule until
// retrace replays it.
func (x *runner) runOne(s *Scenario, ch machine.Chooser, rep *Report, dd *dedupRun, traced bool) *Counterexample {
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
	m := machine.NewOn(&x.carriers, mo)
	defer func() { rep.Stats.Depth.Observe(float64(len(rec.choices))) }()
	w := s.Setup(m)
	h := &x.h
	h.rec.Reset()

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
	}
	if cx := checkInv("after setup"); cx != nil {
		return cx
	}

	crashesLeft := s.MaxCrashes
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
		if dd != nil && dd.boundaryPrune(m, w, h, rec, rpc, crashesLeft) {
			// Another prefix owns this boundary's recovery subtree; its
			// suffix behavior is already covered, so stop the execution
			// here. The DFS backtracks from the boundary, skipping the
			// whole subtree.
			return nil
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

	if s.Post != nil {
		rec.era("post")
		res = m.RunEra(chooser, false, func(t *machine.T) { s.Post(t, w, h) })
		if res.Outcome == machine.Violation {
			return fail("machine violation in post phase: " + res.Err.Error())
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
	return nil
}

// dfsChooser drives a depth-first enumeration of choice sequences. Each
// execution replays a prefix of recorded choices and extends with option
// 0; next() advances the last choice point with untried options,
// backtracking exhausted suffixes.
//
// For the parallel search, the first `pinned` points are a donated job
// prefix that next() never backtracks into, and a point's `limit` caps
// which options this chooser still owns (higher siblings were donated
// to other workers via splitShallowest).
type dfsChooser struct {
	points []choicePoint
	pos    int
	pinned int
	// reseats counts replayed points that had to be re-seated (see
	// Choose and Stats.Reseats).
	reseats int
}

type choicePoint struct {
	n      int
	chosen int
	tag    string
	// limit, when nonzero, is the exclusive upper bound of options this
	// chooser still owns at the point (the rest were donated). It never
	// affects replay, only next()/splitShallowest.
	limit int
}

func (d *dfsChooser) reset() { d.pos = 0 }

// Choose implements machine.Chooser.
func (d *dfsChooser) Choose(n int, tag string) int {
	if d.pos < len(d.points) {
		p := d.points[d.pos]
		if p.n == 0 && d.pos < d.pinned {
			// First replay of a donated prefix point: learn its branching
			// factor (the donor recorded only the chosen option).
			d.points[d.pos].n = n
			d.points[d.pos].tag = tag
			p = d.points[d.pos]
		}
		if p.n != n {
			// The machine must be deterministic given prior choices; a
			// mismatch indicates harness nondeterminism (e.g. map
			// iteration leaking into the model). Re-seat the point,
			// and say so.
			d.reseats++
			d.points = d.points[:d.pos]
			d.points = append(d.points, choicePoint{n: n, tag: tag})
		}
		c := d.points[d.pos].chosen
		d.pos++
		return c
	}
	d.points = append(d.points, choicePoint{n: n, tag: tag})
	d.pos++
	return 0
}

// next advances to the next unexplored choice sequence, returning false
// when the (possibly prefix-pinned) space is exhausted.
func (d *dfsChooser) next() bool {
	// Discard choice points beyond those actually consumed this run.
	d.points = d.points[:d.pos]
	for len(d.points) > d.pinned {
		last := &d.points[len(d.points)-1]
		lim := last.n
		if last.limit > 0 && last.limit < lim {
			lim = last.limit
		}
		if last.chosen+1 < lim {
			last.chosen++
			return true
		}
		d.points = d.points[:len(d.points)-1]
	}
	return false
}

func (d *dfsChooser) taken() []int {
	out := make([]int, d.pos)
	for i := 0; i < d.pos; i++ {
		out[i] = d.points[i].chosen
	}
	return out
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
	return x.runOne(s, &machine.ScriptChooser{Script: choices}, &Report{}, nil, true)
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
		return x.runOne(s, &machine.ScriptChooser{Script: c}, &Report{}, nil, false) != nil
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
