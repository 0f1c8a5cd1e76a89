package explore

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestCounterexampleOwnsItsSlices: a runner hands its recorder buffers,
// its history and its carriers to its next execution, so a
// counterexample must not alias them. After a conviction, further
// executions on the same runner — longer, shorter, traced and not —
// leave the counterexample, and what ReplayCx makes of its choices,
// exactly as they were.
func TestCounterexampleOwnsItsSlices(t *testing.T) {
	s := brokenScenario()
	var x runner
	defer x.carriers.Release()

	var cx *Counterexample
	d := &dfsChooser{}
	for cx == nil {
		d.reset()
		if cx = x.runOne(s, d, &Report{}, nil, true); cx == nil && !d.next() {
			t.Fatal("torn write not caught")
		}
	}
	if len(cx.Choices) == 0 || len(cx.Schedule) == 0 || len(cx.Trace) == 0 || len(cx.History) == 0 {
		t.Fatalf("traced counterexample is missing a part:\n%s", cx.Format())
	}
	want := cx.Format()
	choices, schedule, trace, hist := slices.Clone(cx.Choices), slices.Clone(cx.Schedule), slices.Clone(cx.Trace), slices.Clone(cx.History)

	// The same runner goes on: the rest of the broken scenario's tree,
	// then the whole of a clean one, traced and untraced alternately.
	further := 0
	for _, next := range []*Scenario{s, scenario(true, true)} {
		d := &dfsChooser{}
		for more := true; more; more = d.next() {
			d.reset()
			x.runOne(next, d, &Report{}, nil, further%2 == 0)
			further++
		}
	}
	if further < 10 {
		t.Fatalf("only %d further executions", further)
	}

	if got := cx.Format(); got != want {
		t.Fatalf("the counterexample changed under %d further executions\nbefore:\n%s\nafter:\n%s", further, want, got)
	}
	if !slices.Equal(cx.Choices, choices) || !slices.Equal(cx.Schedule, schedule) || !slices.Equal(cx.Trace, trace) || !slices.Equal(cx.History, hist) {
		t.Fatal("a slice of the counterexample changed under further executions")
	}
	replay := x.runOne(s, &machine.ScriptChooser{Script: cx.Choices}, &Report{}, nil, true)
	if replay == nil || replay.Format() != want {
		t.Fatal("the counterexample is no longer its replay on the same runner")
	}
	if replay := ReplayCx(s, cx.Choices); replay == nil || replay.Format() != want {
		t.Fatal("the counterexample is no longer its ReplayCx")
	}
}

// TestEveryOwnerReleasesItsCarriers: whoever runs executions owns a
// carrier set and releases it before returning, whichever way it
// returns. Carriers are parked goroutines, so after each path the
// goroutine count is back where it started.
func TestEveryOwnerReleasesItsCarriers(t *testing.T) {
	before := runtime.NumGoroutine()
	settled := func() int {
		// A worker or carrier that has signalled completion may still be
		// on its way out, and under -race that can take longer than any
		// fixed number of yields: poll until the count is back or five
		// seconds have passed. A leak stays, so it still fails.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	check := func(path string) {
		t.Helper()
		if n := settled(); n > before {
			t.Fatalf("%s left %d goroutines, started with %d", path, n, before)
		}
	}
	clean, broken := scenario(true, true), brokenScenario()

	for _, workers := range []int{1, 4} {
		if rep := Run(clean, Options{MaxExecutions: 1000, Workers: workers}); !rep.OK() || !rep.Complete {
			t.Fatalf("clean scenario: %s", rep)
		}
		check("a verified search")

		rep := Run(broken, Options{MaxExecutions: 1000, Workers: workers})
		if rep.OK() {
			t.Fatal("torn write not caught")
		}
		check("a convicting search (early return, then the retrace)")

		if rep := Run(clean, Options{MaxExecutions: 3, Workers: workers}); !rep.OK() || rep.Complete {
			t.Fatalf("budget of 3: %s", rep)
		}
		check("a search that hit its budget")
	}

	if rep := Run(clean, Options{MaxExecutions: 1, Workers: 1, StressExecutions: 50, StressSeed: 1}); !rep.OK() {
		t.Fatalf("sequential stress: %s", rep)
	}
	check("sequential stress")
	if rep := Run(broken, Options{MaxExecutions: 1, Workers: 4, StressExecutions: 200, StressSeed: 1}); rep.OK() {
		t.Fatal("parallel stress missed the torn write")
	}
	check("parallel stress (convicting)")

	cx := Run(broken, Options{MaxExecutions: 1000}).Counterexample
	if ReplayCx(broken, cx.Choices) == nil {
		t.Fatal("counterexample does not replay")
	}
	check("ReplayCx")
	if ReplayCx(clean, nil) != nil {
		t.Fatal("clean scenario failed a replay")
	}
	check("ReplayCx of a passing script")
	Minimize(broken, cx.Choices)
	check("Minimize")
}

// TestReseatsAreCounted: a scenario that is not a function of its
// choices — here every other execution has a thread the one before did
// not — makes replayed prefixes offer different branching factors. The
// search re-seats those choice points, as it always did, and now counts
// them and says so; a scenario that behaves reports none.
func TestReseatsAreCounted(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := scenario(true, true)
		var runs atomic.Int64
		main := s.Main
		s.Main = func(t *machine.T, w any, h *Harness) {
			if runs.Add(1)%2 == 0 {
				t.Go(func(c *machine.T) { c.Step("stray") })
			}
			main(t, w, h)
		}
		rep := Run(s, Options{MaxExecutions: 200, Workers: workers})
		if rep.Stats.Reseats == 0 || !strings.Contains(rep.Stats.String(), "RESEATED") {
			t.Errorf("Workers: %d: %d reseats counted over %d executions of a nondeterministic scenario: %s",
				workers, rep.Stats.Reseats, rep.Executions, rep.Stats)
		}

		rep = Run(scenario(true, true), Options{MaxExecutions: 200, Workers: workers})
		if rep.Stats.Reseats != 0 || strings.Contains(rep.Stats.String(), "RESEATED") {
			t.Errorf("Workers: %d: a deterministic scenario reports reseats: %s", workers, rep.Stats)
		}
	}
}

// TestVerdictsAreCounted: every execution that reaches the refinement
// check is counted once, as a verdict judged afresh or one a worker's
// checker reused, summed over the workers of both phases; the stats
// line says so once anything was reused, and only then.
func TestVerdictsAreCounted(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rep := Run(scenario(true, true), Options{MaxExecutions: 200, Workers: workers, StressExecutions: 50})
		st := rep.Stats
		if !rep.OK() || st.VerdictsDistinct+st.VerdictsReused != rep.Executions {
			t.Fatalf("Workers: %d: %d distinct + %d reused verdicts for %d executions: %s",
				workers, st.VerdictsDistinct, st.VerdictsReused, rep.Executions, rep)
		}
		t.Logf("Workers: %d: %s", workers, st)
		want := fmt.Sprintf("verdicts: %d distinct, %d reused", st.VerdictsDistinct, st.VerdictsReused)
		if st.VerdictsReused == 0 || !strings.Contains(st.String(), want) {
			t.Errorf("Workers: %d: a search of a few distinct histories reports %q", workers, st)
		}
	}
	rep := Run(scenario(true, true), Options{MaxExecutions: 1, Workers: 1})
	if rep.Stats.VerdictsDistinct != 1 || rep.Stats.VerdictsReused != 0 || strings.Contains(rep.Stats.String(), "verdicts") {
		t.Errorf("one execution reports %+v verdicts: %s", rep.Stats, rep.Stats)
	}
}
