package explore

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/spec"
)

// fingerprinted returns the register scenario opted into crash-boundary
// dedup: the world's two halves are its only crash-surviving state.
func fingerprinted(durable, tearable bool) *Scenario {
	s := scenario(durable, tearable)
	s.Fingerprint = func(wAny any, b []byte) []byte {
		w := wAny.(*world)
		b = machine.AppendUint64(b, uint64(w.hi))
		return machine.AppendUint64(b, uint64(w.lo))
	}
	return s
}

// convergent builds a scenario whose schedules genuinely converge at
// crash boundaries: two racing writers with equal step counts open and
// close transient windows (lo=1 between A's steps, hi=1 between B's),
// so different interleavings reach boundaries that agree on everything
// the fingerprint hashes except (with an honest hook) the register
// halves. With buggy=true, recovery turns the hi==1 && lo==1 overlap
// into the poison value 99, which the invariant rejects — a violation
// reachable only by crashing inside both windows at once, which never
// happens on the DFS spine (A runs to completion first, closing its
// window before B opens one). An unsound fingerprint that omits the
// registers therefore lets the spine's boundary claim the table slot
// and prune the only violating subtrees.
func convergent(buggy, honest bool) *Scenario {
	s := &Scenario{
		Name:        "convergent",
		Spec:        regSpec(true),
		MachineOpts: machine.Options{MaxSteps: 200},
		MaxCrashes:  1,
		Setup:       func(m *machine.Machine) any { return &world{} },
		Main: func(t *machine.T, wAny any, h *Harness) {
			w := wAny.(*world)
			t.Go(func(c *machine.T) {
				c.Step("a1")
				w.lo = 1
				c.Step("a2")
				w.lo = 0
			})
			t.Go(func(c *machine.T) {
				c.Step("b1")
				w.hi = 1
				c.Step("b2")
				w.hi = 0
			})
		},
	}
	if buggy {
		s.Recover = func(t *machine.T, wAny any) {
			w := wAny.(*world)
			if w.hi == 1 && w.lo == 1 {
				w.hi = 99
			}
		}
		s.Invariant = func(m *machine.Machine, wAny any) error {
			if w := wAny.(*world); w.hi == 99 {
				return fmt.Errorf("poison value after recovery")
			}
			return nil
		}
	}
	if honest {
		s.Fingerprint = func(wAny any, b []byte) []byte {
			w := wAny.(*world)
			b = machine.AppendUint64(b, uint64(w.hi))
			return machine.AppendUint64(b, uint64(w.lo))
		}
	} else {
		// Deliberately unsound: omits the registers, so boundaries that
		// differ only in w.hi/w.lo collapse.
		s.Fingerprint = func(wAny any, b []byte) []byte { return b }
	}
	return s
}

// TestWorkerCountDeterminism is the determinism satellite: for a fixed
// scenario, 1-worker and N-worker searches — dedup off and on — must
// report the same verdict, and for failing scenarios the same
// counterexample schedule after Minimize.
func TestWorkerCountDeterminism(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Scenario
		want bool // want a violation
	}{
		{"clean", func() *Scenario { return fingerprinted(true, true) }, false},
		{"buggy", func() *Scenario {
			s := fingerprinted(true, true)
			s.Recover = func(t *machine.T, wAny any) {} // broken recovery
			return s
		}, true},
	}
	for _, tc := range cases {
		var minimized []string
		var schedules []string
		for _, workers := range []int{1, 4} {
			for _, noreduce := range []bool{false, true} {
				rep := Run(tc.mk(), Options{MaxExecutions: 5000, Workers: workers, NoReduce: noreduce})
				label := fmt.Sprintf("%s workers=%d noreduce=%v", tc.name, workers, noreduce)
				if rep.OK() == tc.want {
					t.Fatalf("%s: verdict flipped (violation=%v)", label, !rep.OK())
				}
				if rep.Counterexample == nil {
					if !rep.Complete {
						t.Fatalf("%s: search did not complete", label)
					}
					continue
				}
				min := Minimize(tc.mk(), rep.Counterexample.Choices)
				minimized = append(minimized, fmt.Sprint(min))
				cx := ReplayCx(tc.mk(), min)
				if cx == nil {
					t.Fatalf("%s: minimized counterexample does not replay", label)
				}
				schedules = append(schedules, cx.Schedule.Format())
			}
		}
		for i := 1; i < len(minimized); i++ {
			if minimized[i] != minimized[0] {
				t.Fatalf("%s: minimized counterexamples differ:\n%s\n%s", tc.name, minimized[0], minimized[i])
			}
			if schedules[i] != schedules[0] {
				t.Fatalf("%s: minimized schedules differ:\n%s\n%s", tc.name, schedules[0], schedules[i])
			}
		}
	}
}

// TestParallelPartitionCoversWholeSpace checks that donated jobs
// partition the choice tree exactly: a complete N-worker search without
// dedup explores the same number of executions as the sequential DFS.
func TestParallelPartitionCoversWholeSpace(t *testing.T) {
	seq := Run(scenario(true, true), Options{MaxExecutions: 5000, Workers: 1})
	for _, workers := range []int{2, 4, 7} {
		par := Run(scenario(true, true), Options{MaxExecutions: 5000, Workers: workers})
		if !seq.Complete || !par.Complete {
			t.Fatal("space not exhausted")
		}
		if par.Executions != seq.Executions {
			t.Fatalf("workers=%d explored %d executions, sequential %d",
				workers, par.Executions, seq.Executions)
		}
		if got := par.Stats.Workers; got != workers {
			t.Fatalf("Stats.Workers=%d, want %d", got, workers)
		}
		if len(par.Stats.PerWorker) != workers {
			t.Fatalf("PerWorker has %d entries, want %d", len(par.Stats.PerWorker), workers)
		}
		total := 0
		for _, ws := range par.Stats.PerWorker {
			total += ws.Executions
		}
		if total != par.Executions {
			t.Fatalf("per-worker executions sum to %d, report says %d", total, par.Executions)
		}
	}
}

// TestSplitShallowestPartitionsExactly drives the donation mechanics
// directly: after a split, the donor plus the donated jobs enumerate
// every leaf of a known tree exactly once.
func TestSplitShallowestPartitionsExactly(t *testing.T) {
	walk := func(d *dfsChooser, seen map[string]int) {
		for {
			d.reset()
			a := d.Choose(3, "x")
			b := d.Choose(2, "y")
			seen[fmt.Sprintf("%d%d", a, b)]++
			if !d.next() {
				return
			}
		}
	}

	d := &dfsChooser{}
	seen := map[string]int{}
	// Run the first execution, then donate at the shallowest point.
	d.reset()
	a := d.Choose(3, "x")
	b := d.Choose(2, "y")
	seen[fmt.Sprintf("%d%d", a, b)]++
	jobs := d.splitShallowest()
	if len(jobs) != 2 { // options 1 and 2 of the first point
		t.Fatalf("jobs=%v", jobs)
	}
	if !d.next() {
		t.Fatal("donor subtree exhausted prematurely")
	}
	walk(d, seen)
	for _, j := range jobs {
		jd := &dfsChooser{}
		jd.seed(j)
		walk(jd, seen)
	}
	if len(seen) != 6 {
		t.Fatalf("leaves covered: %v", seen)
	}
	for leaf, n := range seen {
		if n != 1 {
			t.Fatalf("leaf %s explored %d times", leaf, n)
		}
	}
}

// TestDedupPrunesConvergentBoundaries checks the table actually prunes:
// the clean convergent scenario's interleavings collapse at crash
// boundaries, and the verdict and completeness survive.
func TestDedupPrunesConvergentBoundaries(t *testing.T) {
	off := Run(convergent(false, true), Options{MaxExecutions: 50000, Workers: 1, NoReduce: true})
	on := Run(convergent(false, true), Options{MaxExecutions: 50000, Workers: 1})
	if !off.OK() || !on.OK() {
		t.Fatal("clean scenario reported a violation")
	}
	if !off.Complete || !on.Complete {
		t.Fatal("search did not complete")
	}
	if !on.Stats.DedupActive {
		t.Fatal("dedup inactive despite Fingerprint hook")
	}
	if on.Stats.PrunedStates == 0 {
		t.Fatal("no boundaries pruned in a convergent scenario")
	}
	if on.Stats.DistinctBoundaries == 0 {
		t.Fatal("no distinct boundaries recorded")
	}
	if on.Executions > off.Executions {
		t.Fatalf("dedup increased executions: %d > %d", on.Executions, off.Executions)
	}
}

// volatileTail is a durable register written once, atomically, and then
// left alone while its thread spins through volatile steps: every crash
// among the spins leaves the same register, the same history and the
// same budgets, after a different number of steps.
func volatileTail(spins int) *Scenario {
	s := fingerprinted(true, false)
	s.Name = "volatile-tail"
	s.Main = func(t *machine.T, wAny any, h *Harness) {
		w := wAny.(*world)
		h.Op(opSet{v: 7}, func() spec.Ret {
			t.Step("write")
			w.hi, w.lo = 7, 7
			return nil
		})
		for range spins {
			t.Step("spin") // changes nothing a crash keeps
		}
	}
	return s
}

// TestDedupIgnoresVolatileStepCount: the step budget is per era, so how
// many steps led to a crash is nothing recovery can observe, and the
// crash points among the spins are one boundary. The search meets three:
// before the write, inside it, after it — and prunes the later spins'
// crashes, with the outcomes the plain search reaches. Each pruned crash
// state was evaluated in place and skipped: no execution ran to it.
func TestDedupIgnoresVolatileStepCount(t *testing.T) {
	const spins = 3
	s := volatileTail(spins)
	rep := Run(s, Options{Workers: 1})
	if !rep.OK() || !rep.Complete {
		t.Fatalf("clean scenario: %s", rep)
	}
	if rep.Stats.DistinctBoundaries != 3 || rep.Stats.PrunedStates != spins-1 {
		t.Fatalf("%d boundaries, %d pruned; want 3 and %d: the step count splits one boundary",
			rep.Stats.DistinctBoundaries, rep.Stats.PrunedStates, spins-1)
	}
	if rep.Stats.CrashStatesSkipped != rep.Stats.PrunedStates || rep.CrashedExecutions != rep.Stats.DistinctBoundaries {
		t.Fatalf("%d crash states skipped of %d pruned, %d crashed executions for %d boundaries: a pruned crash state took an execution",
			rep.Stats.CrashStatesSkipped, rep.Stats.PrunedStates, rep.CrashedExecutions, rep.Stats.DistinctBoundaries)
	}
	with, without, err := SelfCheck(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Complete || !without.Complete {
		t.Fatalf("self-check: reduced %s, plain %s", with, without)
	}
}

// TestSelfCheckCatchesUnsoundFingerprint is the negative control for
// the self-check mode: a fingerprint hook that omits crash-surviving
// state lets dedup prune the only failing subtrees (the crash boundary
// inside both transient windows, which never lies on the DFS spine),
// and SelfCheck must report the verdict change.
func TestSelfCheckCatchesUnsoundFingerprint(t *testing.T) {
	if _, _, err := SelfCheck(convergent(true, true), Options{MaxExecutions: 50000, Workers: 1}); err != nil {
		t.Fatalf("honest fingerprint flagged: %v", err)
	}
	if _, _, err := SelfCheck(convergent(true, false), Options{MaxExecutions: 50000, Workers: 1}); err == nil {
		t.Fatal("unsound fingerprint not caught by the self-check")
	}
}

// TestDedupInactiveWithoutHook: scenarios that do not opt in must run
// exactly as before, with DedupActive=false.
func TestDedupInactiveWithoutHook(t *testing.T) {
	rep := Run(scenario(true, true), Options{MaxExecutions: 5000})
	if rep.Stats.DedupActive {
		t.Fatal("dedup active without a Fingerprint hook")
	}
	if rep.Stats.PrunedStates != 0 {
		t.Fatalf("pruned %d states without a hook", rep.Stats.PrunedStates)
	}
}

// TestStressStatsCountUniqueExecutions is the regression test for the
// execs/sec double-count: parallel stress used to count executions that
// raced past the winning counterexample's offset, inflating Executions
// and the throughput rate nondeterministically. Both must now reflect
// unique contributing executions only, matching one worker's count.
func TestStressStatsCountUniqueExecutions(t *testing.T) {
	mk := func() *Scenario {
		s := scenario(true, true)
		s.Recover = func(t *machine.T, wAny any) {} // broken recovery
		return s
	}
	seq := Run(mk(), Options{MaxExecutions: 1, Workers: 1, StressExecutions: 500, StressSeed: 11})
	par := Run(mk(), Options{MaxExecutions: 1, Workers: 4, StressExecutions: 500, StressSeed: 11})
	if seq.OK() || par.OK() {
		t.Fatal("stress did not find the seeded bug")
	}
	if seq.Stats.StressDiscarded != 0 {
		t.Fatalf("sequential stress discarded %d", seq.Stats.StressDiscarded)
	}
	if par.Executions != seq.Executions {
		t.Fatalf("parallel stress counted %d executions, sequential %d (discarded retries leaked in?)",
			par.Executions, seq.Executions)
	}
	// The rate is derived from the deduplicated count.
	if sec := par.Stats.Duration.Seconds(); sec > 0 {
		want := float64(par.Executions) / sec
		if math.Abs(par.Stats.ExecsPerSec-want) > 1e-6*want+1e-9 {
			t.Fatalf("ExecsPerSec=%f, want %f", par.Stats.ExecsPerSec, want)
		}
	}
}

// TestBudgetSharedAcrossWorkers: the execution budget is claimed per
// execution, so the count is exact regardless of worker count.
func TestBudgetSharedAcrossWorkers(t *testing.T) {
	full := Run(convergent(false, true), Options{MaxExecutions: 50000, Workers: 1, NoReduce: true})
	if !full.Complete || full.Executions < 3 {
		t.Fatalf("want a completed search of ≥3 executions, got complete=%v n=%d", full.Complete, full.Executions)
	}
	budget := full.Executions - 1
	for _, workers := range []int{1, 4} {
		rep := Run(convergent(false, true), Options{MaxExecutions: budget, Workers: workers, NoReduce: true})
		if rep.Complete {
			t.Fatalf("workers=%d: %d executions cannot exhaust a %d-execution space",
				workers, budget, full.Executions)
		}
		if rep.Executions != budget {
			t.Fatalf("workers=%d ran %d executions, budget was %d", workers, rep.Executions, budget)
		}
	}
}
