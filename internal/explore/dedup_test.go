package explore

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/spec"
)

// convergent builds a scenario whose schedules genuinely converge at
// crash boundaries: two racing writers with equal step counts open and
// close transient windows (lo=1 between A's steps, hi=1 between B's),
// so different interleavings reach boundaries that agree on everything
// but the register halves. With buggy=true, recovery turns the
// hi==1 && lo==1 overlap into the poison value 99, which the invariant
// rejects — a violation reachable only by crashing inside both windows
// at once, which never happens on the DFS spine (A runs to completion
// first, closing its window before B opens one). setup registers what
// a crash keeps: newWorld, the whole world, is honest, and a setup that
// leaves a register half out lets the spine's boundary claim the table
// slot and prune the only violating subtrees.
func convergent(buggy bool, setup func(m *machine.Machine) any) *Scenario {
	s := &Scenario{
		Name:        "convergent",
		Spec:        regSpec(true),
		MachineOpts: machine.Options{MaxSteps: 200},
		MaxCrashes:  1,
		Setup:       setup,
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
	return s
}

// TestDedupPrunesConvergentBoundaries checks the table actually prunes:
// the clean convergent scenario's interleavings collapse at crash
// boundaries, and the verdict and completeness survive.
func TestDedupPrunesConvergentBoundaries(t *testing.T) {
	off := Run(convergent(false, newWorld), Options{MaxExecutions: 50000, NoReduce: true})
	on := Run(convergent(false, newWorld), Options{MaxExecutions: 50000})
	if !off.OK() || !on.OK() {
		t.Fatal("clean scenario reported a violation")
	}
	if !off.Complete || !on.Complete {
		t.Fatal("search did not complete")
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
	s := scenario(true, false)
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
	rep := Run(s, Options{})
	if !rep.OK() || !rep.Complete {
		t.Fatalf("clean scenario: %s", rep)
	}
	if rep.Stats.DistinctBoundaries != 3 || rep.Stats.PrunedStates != spins-1 {
		t.Fatalf("%d boundaries, %d pruned; want 3 and %d: the step count splits one boundary",
			rep.Stats.DistinctBoundaries, rep.Stats.PrunedStates, spins-1)
	}
	if rep.CrashedExecutions != rep.Stats.DistinctBoundaries {
		t.Fatalf("%d crashed executions for %d boundaries: a pruned crash state took an execution",
			rep.CrashedExecutions, rep.Stats.DistinctBoundaries)
	}
	with, without, err := SelfCheck(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Complete || !without.Complete {
		t.Fatalf("self-check: reduced %s, plain %s", with, without)
	}
}

// TestRunRefusesFingerprint: nothing reads Scenario.Fingerprint, so Run
// refuses a scenario that sets one with a checker error and no verdict,
// rather than drop the hook silently.
func TestRunRefusesFingerprint(t *testing.T) {
	s := scenario(true, true)
	s.Fingerprint = func(_ any, b []byte) []byte { return b }
	rep := Run(s, Options{})
	if rep.OK() || rep.Complete || rep.Counterexample != nil || rep.Executions != 0 || !errors.Is(rep.Err, errFingerprint) {
		t.Fatalf("%s (%v), want a checker error before any execution", rep, rep.Err)
	}
}

// TestExampleScenarioSelfCheck witnesses ExampleRun's counts: its
// reduced search and its plain one both complete, with one verdict and
// one outcome set.
func TestExampleScenarioSelfCheck(t *testing.T) {
	with, without, err := SelfCheck(exampleScenario(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Complete || !without.Complete {
		t.Fatalf("reduced %s, plain %s: both must complete", with, without)
	}
	t.Logf("reduced %s (%s); plain %s", with, with.Stats, without)
}
