package explore

import (
	"fmt"
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

// TestDedupPrunesConvergentBoundaries checks the table actually prunes:
// the clean convergent scenario's interleavings collapse at crash
// boundaries, and the verdict and completeness survive.
func TestDedupPrunesConvergentBoundaries(t *testing.T) {
	off := Run(convergent(false, true), Options{MaxExecutions: 50000, NoReduce: true})
	on := Run(convergent(false, true), Options{MaxExecutions: 50000})
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
