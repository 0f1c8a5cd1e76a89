package explore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/tsl"
)

// A trivially checkable system: a durable register held in harness
// state with machine-step-granular operations, so we can exercise the
// explorer's mechanics in isolation.

type regState struct{ v int }

type opSet struct{ v int }

func (o opSet) String() string { return fmt.Sprintf("set(%d)", o.v) }

type opGet struct{}

func (opGet) String() string { return "get()" }

func regSpec(durable bool) spec.Interface {
	s := &spec.TSL[regState]{
		SpecName: "reg",
		Initial:  regState{},
		OpTransition: func(op spec.Op) tsl.Transition[regState, spec.Ret] {
			switch o := op.(type) {
			case opSet:
				return tsl.Then(
					tsl.Modify(func(regState) regState { return regState{v: o.v} }),
					tsl.Ret[regState, spec.Ret](nil))
			case opGet:
				return tsl.Gets(func(s regState) spec.Ret { return s.v })
			default:
				panic("bad op")
			}
		},
	}
	if !durable {
		s.CrashTransition = func(regState) regState { return regState{} }
	}
	return s
}

// world is a register made of two machine-visible halves so that a
// crash can interrupt a torn write; "durable" halves survive crashes.
type world struct {
	hi, lo int // harness-level durable state
}

func scenario(durable bool, tearable bool) *Scenario {
	return &Scenario{
		Name:        "reg",
		Spec:        regSpec(durable),
		MachineOpts: machine.Options{MaxSteps: 500},
		MaxCrashes:  1,
		Setup:       func(m *machine.Machine) any { return &world{} },
		Main: func(t *machine.T, wAny any, h *Harness) {
			w := wAny.(*world)
			t.Go(func(c *machine.T) {
				h.Op(opSet{v: 7}, func() spec.Ret {
					if tearable {
						c.Step("write-hi")
						w.hi = 7
						c.Step("write-lo")
						w.lo = 7
					} else {
						c.Step("write")
						w.hi, w.lo = 7, 7
					}
					return nil
				})
			})
		},
		Recover: func(t *machine.T, wAny any) {
			w := wAny.(*world)
			if !durable {
				w.hi, w.lo = 0, 0
				return
			}
			// Durable spec + tearable write: roll torn writes back.
			if w.hi != w.lo {
				w.hi, w.lo = 0, 0
			}
		},
		Post: func(t *machine.T, wAny any, h *Harness) {
			w := wAny.(*world)
			h.Op(opGet{}, func() spec.Ret {
				t.Step("read")
				if w.hi == w.lo {
					return w.hi
				}
				return -1 // torn
			})
		},
	}
}

func TestSystematicSearchCompletesSmallSpace(t *testing.T) {
	rep := Run(scenario(true, false), Options{MaxExecutions: 1000})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Fatalf("small space not exhausted: %s", rep)
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("crash branch never taken")
	}
}

func TestTornWriteWithRollbackRecoveryIsClean(t *testing.T) {
	rep := Run(scenario(true, true), Options{MaxExecutions: 1000})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestTornWriteWithoutRecoveryIsCaught(t *testing.T) {
	s := scenario(true, true)
	s.Recover = func(t *machine.T, wAny any) {} // broken recovery
	rep := Run(s, Options{MaxExecutions: 1000})
	if rep.OK() {
		t.Fatal("torn write not caught")
	}
	if !strings.Contains(rep.Counterexample.Reason, "refinement failure") {
		t.Fatalf("reason: %s", rep.Counterexample.Reason)
	}
}

func TestVolatileSpecAcceptsLoss(t *testing.T) {
	rep := Run(scenario(false, false), Options{MaxExecutions: 1000})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestBudgetBoundedSearchReportsIncomplete(t *testing.T) {
	rep := Run(scenario(true, true), Options{MaxExecutions: 2})
	if rep.Complete {
		t.Fatal("two executions cannot exhaust this space")
	}
	if rep.Executions != 2 {
		t.Fatalf("executions=%d", rep.Executions)
	}
}

func TestStressModeRuns(t *testing.T) {
	rep := Run(scenario(true, false), Options{MaxExecutions: 1, StressExecutions: 50, StressSeed: 3})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if rep.Executions != 51 {
		t.Fatalf("executions=%d", rep.Executions)
	}
}

func TestInvariantViolationSurfaces(t *testing.T) {
	s := scenario(true, false)
	s.Invariant = func(m *machine.Machine, wAny any) error {
		w := wAny.(*world)
		if w.hi == 7 {
			return fmt.Errorf("planted invariant failure")
		}
		return nil
	}
	rep := Run(s, Options{MaxExecutions: 1000})
	if rep.OK() {
		t.Fatal("invariant failure not reported")
	}
	if !strings.Contains(rep.Counterexample.Reason, "planted invariant failure") {
		t.Fatalf("reason: %s", rep.Counterexample.Reason)
	}
}

func TestMachineViolationBecomesCounterexample(t *testing.T) {
	s := scenario(true, false)
	s.Main = func(t *machine.T, wAny any, h *Harness) {
		t.Go(func(c *machine.T) {
			c.Failf("planted machine violation")
		})
	}
	rep := Run(s, Options{MaxExecutions: 100})
	if rep.OK() || !strings.Contains(rep.Counterexample.Reason, "planted machine violation") {
		t.Fatalf("rep=%v", rep)
	}
}

func TestReplayReproducesCounterexample(t *testing.T) {
	s := scenario(true, true)
	s.Recover = func(t *machine.T, wAny any) {}
	rep := Run(s, Options{MaxExecutions: 1000})
	if rep.OK() {
		t.Fatal("expected counterexample")
	}
	_, _, reason := Replay(s, rep.Counterexample.Choices)
	if reason == "" {
		t.Fatal("replay did not reproduce the failure")
	}
}

func TestRandPolicyKeepsRandOutOfSearchSpace(t *testing.T) {
	// A scenario whose only nondeterminism is one rand call: with a
	// policy, the systematic space collapses to the schedule choices.
	mk := func(policy func(int, int) int) *Scenario {
		return &Scenario{
			Name:        "rand",
			Spec:        regSpec(true),
			MachineOpts: machine.Options{MaxSteps: 100},
			RandPolicy:  policy,
			Setup:       func(m *machine.Machine) any { return &world{} },
			Main: func(t *machine.T, wAny any, h *Harness) {
				h.Op(opSet{v: 0}, func() spec.Ret {
					t.RandUint64(8)
					wAny.(*world).hi = 0
					return nil
				})
			},
		}
	}
	withPolicy := Run(mk(func(call, n int) int { return 0 }), Options{MaxExecutions: 100})
	without := Run(mk(nil), Options{MaxExecutions: 100})
	if !withPolicy.OK() || !without.OK() {
		t.Fatal("unexpected violations")
	}
	if !withPolicy.Complete {
		t.Fatal("policy search should complete")
	}
	if withPolicy.Executions >= without.Executions {
		t.Fatalf("policy did not shrink the space: %d vs %d",
			withPolicy.Executions, without.Executions)
	}
}

func TestDFSChooserEnumeratesAllSequences(t *testing.T) {
	// Directly drive the dfsChooser over a known choice tree: two
	// choice points with 2 and 3 options → 6 sequences.
	d := &dfsChooser{}
	seen := map[string]bool{}
	for {
		d.reset()
		a := d.Choose(2, "x")
		b := d.Choose(3, "y")
		seen[fmt.Sprintf("%d%d", a, b)] = true
		if !d.next() {
			break
		}
	}
	if len(seen) != 6 {
		t.Fatalf("enumerated %d sequences: %v", len(seen), seen)
	}
}

func TestDFSChooserVariableDepth(t *testing.T) {
	// A tree where option 0 leads to an extra choice point.
	d := &dfsChooser{}
	count := 0
	for {
		d.reset()
		if d.Choose(2, "a") == 0 {
			d.Choose(2, "b")
		}
		count++
		if !d.next() {
			break
		}
	}
	if count != 3 { // 00, 01, 1
		t.Fatalf("count=%d", count)
	}
}

func TestHarnessOpRecordsPendingOnKill(t *testing.T) {
	// A crash during the op leaves it pending (invoke with no return).
	m := machine.New(machine.Options{})
	h := &Harness{}
	crashNow := false
	ch := machine.ChooserFunc(func(n int, tag string) int {
		if tag == "sched" && crashNow {
			return n - 1
		}
		return 0
	})
	res := m.RunEra(ch, true, func(mt *machine.T) {
		h.Op(opSet{v: 1}, func() spec.Ret {
			mt.Step("first")
			crashNow = true
			mt.Step("never-reached-effect-visible")
			mt.Step("third")
			return nil
		})
	})
	if res.Outcome != machine.Crashed {
		t.Fatalf("res=%+v", res)
	}
	hist := h.History()
	if len(hist) != 1 {
		t.Fatalf("history: %v", hist)
	}
	if hist[0].String() != "invoke 0: set(1)" {
		t.Fatalf("event: %v", hist[0])
	}
}

func TestMinimizeShrinksCounterexample(t *testing.T) {
	s := scenario(true, true)
	s.Recover = func(t *machine.T, wAny any) {} // broken recovery
	rep := Run(s, Options{MaxExecutions: 1000})
	if rep.OK() {
		t.Fatal("expected a counterexample")
	}
	min := Minimize(s, rep.Counterexample.Choices)
	if len(min) > len(rep.Counterexample.Choices) {
		t.Fatalf("minimization grew the sequence: %d -> %d",
			len(rep.Counterexample.Choices), len(min))
	}
	// The minimized sequence still fails.
	_, _, reason := Replay(s, min)
	if reason == "" {
		t.Fatal("minimized choices no longer reproduce a failure")
	}
}

func TestMinimizeOnPassingChoicesIsIdentity(t *testing.T) {
	s := scenario(true, false)
	choices := []int{0, 0, 0}
	got := Minimize(s, choices)
	if len(got) != len(choices) {
		t.Fatalf("minimize changed a passing sequence: %v", got)
	}
}

func TestReportAndCounterexampleFormatting(t *testing.T) {
	s := scenario(true, true)
	s.Recover = func(t *machine.T, wAny any) {}
	rep := Run(s, Options{MaxExecutions: 1000})
	if rep.OK() {
		t.Fatal("expected counterexample")
	}
	line := rep.String()
	for _, want := range []string{"reg", "VIOLATION", "executions"} {
		if !strings.Contains(line, want) {
			t.Errorf("report line missing %q: %s", want, line)
		}
	}
	body := rep.Counterexample.Format()
	for _, want := range []string{"reason:", "choices:", "history:", "trace:"} {
		if !strings.Contains(body, want) {
			t.Errorf("counterexample missing %q", want)
		}
	}
	okLine := Run(scenario(true, false), Options{MaxExecutions: 1000}).String()
	if !strings.Contains(okLine, "OK") || !strings.Contains(okLine, "complete") {
		t.Errorf("ok line: %s", okLine)
	}
}

func TestParallelStressFindsBugDeterministically(t *testing.T) {
	mk := func() *Scenario {
		s := scenario(true, true)
		s.Recover = func(t *machine.T, wAny any) {}
		return s
	}
	seq := Run(mk(), Options{MaxExecutions: 1, Workers: 1, StressExecutions: 500, StressSeed: 11})
	par := Run(mk(), Options{MaxExecutions: 1, Workers: 4, StressExecutions: 500, StressSeed: 11})
	if seq.OK() || par.OK() {
		t.Fatal("stress did not find the seeded bug")
	}
	// Same smallest failing seed → same counterexample choices.
	if fmt.Sprint(seq.Counterexample.Choices) != fmt.Sprint(par.Counterexample.Choices) {
		t.Fatalf("parallel stress nondeterministic:\n%v\n%v",
			seq.Counterexample.Choices, par.Counterexample.Choices)
	}
}

func TestParallelStressCleanScenario(t *testing.T) {
	rep := Run(scenario(true, false), Options{
		MaxExecutions: 1, Workers: 3, StressExecutions: 200, StressSeed: 2,
	})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if rep.Executions < 100 {
		t.Fatalf("executions=%d", rep.Executions)
	}
}

func TestFormatInterleavingColumns(t *testing.T) {
	trace := []string{
		"t0: newlock l",
		"t0: go -> t1",
		"t1: acquire l",
		"scheduler: inject crash",
		"-- crash: memory version now 2 --",
		"t0: recovered",
	}
	out := FormatInterleaving(trace)
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "thread 0") || !strings.Contains(lines[0], "thread 1") {
		t.Fatalf("header: %q", lines[0])
	}
	// t1's step must be indented into the second column.
	var t1Line string
	for _, l := range lines {
		if strings.Contains(l, "acquire l") {
			t1Line = l
		}
	}
	if t1Line == "" || strings.Index(t1Line, "acquire l") < 20 {
		t.Fatalf("t1 step not in second column: %q", t1Line)
	}
	if !strings.Contains(out, "== scheduler: inject crash ==") {
		t.Fatalf("global line not centered:\n%s", out)
	}
}

func TestFormatInterleavingNoThreads(t *testing.T) {
	out := FormatInterleaving([]string{"just a line"})
	if !strings.Contains(out, "just a line") {
		t.Fatalf("out=%q", out)
	}
}

func TestFormatInterleavingTruncatesLongSteps(t *testing.T) {
	long := "t0: " + strings.Repeat("x", 100)
	out := FormatInterleaving([]string{long})
	for _, l := range strings.Split(out, "\n") {
		if len(l) > 40 && strings.Contains(l, "x") {
			t.Fatalf("line not truncated: %d chars", len(l))
		}
	}
}
