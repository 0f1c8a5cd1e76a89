package groupcommit

import (
	"strings"
	"testing"

	"repro/internal/explore"
)

func wr(v1, v2 uint64) Step { return Step{Write: &OpWrite{V1: v1, V2: v2}} }
func rd() Step              { return Step{Read: true} }
func fl() Step              { return Step{Flush: true} }

func TestSpecCrashLosesOnlyUnflushedWrites(t *testing.T) {
	sp := Spec()
	st := sp.Init()
	mustStep := func(op any, ret any) {
		t.Helper()
		next, ub := sp.Step(st, op, ret)
		if ub || len(next) == 0 {
			t.Fatalf("spec step %v rejected: ub=%v", op, ub)
		}
		st = next[0]
	}
	mustStep(OpWrite{V1: 1, V2: 2}, nil)
	mustStep(OpFlush{}, nil)
	mustStep(OpWrite{V1: 9, V2: 9}, nil)
	crashed := sp.Crash(st)
	if len(crashed) != 1 {
		t.Fatalf("crash has %d outcomes, want 1", len(crashed))
	}
	s := crashed[0].(State)
	if s.VolV1 != 1 || s.VolV2 != 2 {
		t.Fatalf("crash did not reset volatile to durable: %+v", s)
	}
	if s.DurV1 != 1 || s.DurV2 != 2 {
		t.Fatalf("crash changed durable state: %+v", s)
	}
}

func TestVerifiedSequentialWriteFlushRead(t *testing.T) {
	s := Scenario("gc-seq", VariantVerified, ScenarioOptions{
		Steps:     []Step{wr(1, 2)},
		PostReads: 1,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 1})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestVerifiedWriteFlushCrashExhaustive(t *testing.T) {
	s := Scenario("gc-crash", VariantVerified, ScenarioOptions{
		Steps:      []Step{wr(1, 2), fl()},
		MaxCrashes: 1,
		PostReads:  1,
	})
	budget := 50000
	if testing.Short() {
		budget = 5000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("no crash explored")
	}
}

func TestVerifiedUnflushedWriteMayBeLost(t *testing.T) {
	// A write without a flush is allowed to vanish at a crash; the spec
	// permits it, so the whole space must be clean AND some crashed
	// execution must exist.
	s := Scenario("gc-lossy", VariantVerified, ScenarioOptions{
		Steps:      []Step{wr(5, 6)},
		MaxCrashes: 1,
		PostReads:  1,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

func TestVerifiedConcurrentWritersWithFlush(t *testing.T) {
	s := Scenario("gc-conc", VariantVerified, ScenarioOptions{
		Steps:      []Step{wr(1, 2), wr(3, 4), fl()},
		MaxCrashes: 1,
		PostReads:  1,
	})
	budget := 25000
	if testing.Short() {
		budget = 5000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestVerifiedDoubleCrashDuringRecovery(t *testing.T) {
	s := Scenario("gc-2crash", VariantVerified, ScenarioOptions{
		Steps:      []Step{wr(1, 2), fl()},
		MaxCrashes: 2,
		PostReads:  1,
	})
	budget := 50000
	if testing.Short() {
		budget = 5000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestBugFlushNoLogFound(t *testing.T) {
	s := Scenario("gc-bug-nolog", VariantFlushNoLog, ScenarioOptions{
		Steps:      []Step{wr(1, 2), fl()},
		MaxCrashes: 1,
		PostReads:  1,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("unlogged flush tear not found")
	}
}

func TestBugRacyReadIsUndefinedBehaviour(t *testing.T) {
	// A lock-free read races with Write's two-step store; the machine
	// must flag the data race (§6.1's race-is-UB rule).
	s := Scenario("gc-bug-racyread", VariantRacyRead, ScenarioOptions{
		Steps: []Step{wr(1, 2), rd()},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("data race not found")
	}
	if !strings.Contains(rep.Counterexample.Reason, "data race") {
		t.Fatalf("expected a data-race violation, got:\n%s", rep.Counterexample.Format())
	}
}
