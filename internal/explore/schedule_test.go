package explore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
)

// brokenScenario is the torn-write register with recovery disabled —
// the standing source of a real counterexample for these tests.
func brokenScenario() *Scenario {
	s := scenario(true, true)
	s.Recover = func(t *machine.T, wAny any) {}
	return s
}

func TestCounterexampleCarriesSchedule(t *testing.T) {
	rep := Run(brokenScenario(), Options{MaxExecutions: 1000})
	if rep.OK() {
		t.Fatal("torn write not caught")
	}
	cx := rep.Counterexample
	if len(cx.Schedule) == 0 {
		t.Fatal("counterexample has no structured schedule")
	}
	if got := cx.Schedule.Crashes(); got < 1 {
		t.Fatalf("schedule records %d crashes, want >= 1", got)
	}
	var sawThread, sawMain, sawRecovery bool
	for _, st := range cx.Schedule {
		switch {
		case st.Kind == StepThread:
			if st.Thread < 0 {
				t.Fatalf("thread step with unresolved thread id: %+v", st)
			}
			sawThread = true
		case st.Kind == StepEra && st.Tag == "main":
			sawMain = true
		case st.Kind == StepEra && st.Tag == "recovery":
			sawRecovery = true
		}
	}
	if !sawThread || !sawMain || !sawRecovery {
		t.Fatalf("schedule missing expected steps (thread=%v main=%v recovery=%v):\n%s",
			sawThread, sawMain, sawRecovery, cx.Schedule.Format())
	}
	body := cx.Format()
	for _, want := range []string{"schedule (", "CRASH injected", "-- era: main --"} {
		if !strings.Contains(body, want) {
			t.Errorf("Format() missing %q:\n%s", want, body)
		}
	}
}

func TestReplayCxReproducesSchedule(t *testing.T) {
	s := brokenScenario()
	rep := Run(s, Options{MaxExecutions: 1000})
	if rep.OK() {
		t.Fatal("torn write not caught")
	}
	cx := rep.Counterexample
	cx2 := ReplayCx(s, cx.Choices)
	if cx2 == nil {
		t.Fatal("replay of counterexample choices did not fail")
	}
	if cx2.Reason != cx.Reason {
		t.Fatalf("replay reason %q, original %q", cx2.Reason, cx.Reason)
	}
	if fmt.Sprint(cx2.Schedule) != fmt.Sprint(cx.Schedule) {
		t.Fatalf("replayed schedule differs:\noriginal:\n%s\nreplay:\n%s",
			cx.Schedule.Format(), cx2.Schedule.Format())
	}
}

func TestRunPopulatesStats(t *testing.T) {
	rep := Run(scenario(true, false), Options{MaxExecutions: 1000, StressExecutions: 40})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	st := rep.Stats
	if st.Duration <= 0 {
		t.Errorf("Duration = %v, want > 0", st.Duration)
	}
	if st.ExecsPerSec <= 0 || st.StatesPerSec <= 0 {
		t.Errorf("rates not derived: %+v", st)
	}
	_, counts := st.Depth.Snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != uint64(rep.Executions) {
		t.Errorf("depth histogram holds %d observations, want %d", total, rep.Executions)
	}
	if !strings.Contains(st.String(), "execs/s") {
		t.Errorf("Stats.String() = %q", st.String())
	}
}

func TestScheduleFormatCompressesRuns(t *testing.T) {
	sc := Schedule{
		{Kind: StepEra, Tag: "main"},
		{Kind: StepThread, Thread: 1, N: 3, Chosen: 1},
		{Kind: StepThread, Thread: 1, N: 3, Chosen: 1},
		{Kind: StepThread, Thread: 1, N: 3, Chosen: 1},
		{Kind: StepChoice, Tag: "fault", N: 2, Chosen: 1},
		{Kind: StepCrash, N: 4, Chosen: 3},
	}
	got := sc.Format()
	for _, want := range []string{
		"-- era: main --",
		"run t1 for 3 steps",
		"choose fault = 1 of 2",
		"CRASH injected (option 3 of 4)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Format() missing %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "run t1") != 1 {
		t.Errorf("thread run not compressed:\n%s", got)
	}
}

// TestSearchAttachesNoTrace: searched executions (systematic, stress,
// Minimize) run on machines with no trace attached, whatever the
// scenario's MachineOpts ask for; only the replay that regenerates a
// counterexample's trace attaches one.
func TestSearchAttachesNoTrace(t *testing.T) {
	traced, untraced := 0, 0
	count := func(s *Scenario) *Scenario {
		s.MachineOpts.TraceDepth = 64
		setup := s.Setup
		s.Setup = func(m *machine.Machine) any {
			if m.Tracing() {
				traced++
			} else {
				untraced++
			}
			return setup(m)
		}
		return s
	}

	rep := Run(count(scenario(true, true)), Options{MaxExecutions: 1000, StressExecutions: 20})
	if !rep.OK() || !rep.Complete {
		t.Fatalf("clean scenario: %s", rep)
	}
	if traced != 0 || untraced != rep.Executions {
		t.Fatalf("verified run of %d executions: %d traced, %d untraced", rep.Executions, traced, untraced)
	}

	traced, untraced = 0, 0
	s := count(brokenScenario())
	rep = Run(s, Options{MaxExecutions: 1000})
	if rep.OK() {
		t.Fatal("torn write not caught")
	}
	if traced != 1 || untraced != rep.Executions {
		t.Fatalf("convicting run of %d executions: %d traced (want 1, the replay), %d untraced", rep.Executions, traced, untraced)
	}
	cx := rep.Counterexample
	if len(cx.Trace) == 0 || len(cx.Trace) > 64 {
		t.Fatalf("replayed trace has %d lines, want 1..64 (the scenario's TraceDepth)", len(cx.Trace))
	}
	if again := ReplayCx(s, cx.Choices); again == nil || again.Format() != cx.Format() {
		t.Fatal("the search's counterexample is not byte-identical to its replay")
	}

	traced, untraced = 0, 0
	Minimize(s, cx.Choices)
	if traced != 0 || untraced == 0 {
		t.Fatalf("Minimize: %d traced executions, %d untraced", traced, untraced)
	}
}

// TestRetraceKeepsFindingThatDoesNotReplay: a scenario that is not a
// function of its choices (here: it fails on its first execution only)
// still gets its violation reported, flagged as unreproducible, rather
// than dropped because the trace-regenerating replay came out clean.
func TestRetraceKeepsFindingThatDoesNotReplay(t *testing.T) {
	s := scenario(true, false)
	runs := 0
	s.Invariant = func(m *machine.Machine, w any) error {
		if runs++; runs == 1 {
			return fmt.Errorf("only the first time")
		}
		return nil
	}
	rep := Run(s, Options{MaxExecutions: 10})
	if rep.OK() {
		t.Fatal("violation lost")
	}
	cx := rep.Counterexample
	if !strings.Contains(cx.Reason, "only the first time") || !strings.Contains(cx.Reason, "did not reproduce") {
		t.Fatalf("reason: %s", cx.Reason)
	}
	if len(cx.Trace) != 0 || len(cx.Schedule) != 0 {
		t.Fatalf("unreproduced counterexample carries a trace: %s", cx.Format())
	}
}
