package mailboat

import (
	"testing"

	"repro/internal/explore"
)

// These tests check the Mailboat spec on the mirrored store under
// *permanent* (fail-stop) replica faults: each replica's model sits
// behind a gfs.Faulty whose chooser-driven policy lets the explorer
// kill either replica at any file-system operation (budget one death
// per execution). Reads must fail over, acked deliveries must survive
// on the other replica, and — once a crash triggers recovery — the
// resilver must restore byte-identical redundancy. This is the repo's
// first availability property: the replicated-disk example's failover
// argument (§4 of the paper) replayed on the full mail server.

func TestMirroredVerifiedReplicaDeathExhaustive(t *testing.T) {
	s := Scenario("mb-mirror-death", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "m"}},
		PostPickups: true,
		Mirror:      true,
		Faults:      oneFailStop,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under replica death:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestMirroredVerifiedDeathAndCrashCombined is the headline
// availability check: crash points AND a permanent replica death
// enumerated together. Every crash runs recovery, which replaces the
// dead replica and resilvers it from the survivor; the between-era
// invariant then demands full redundancy (not degraded, replicas
// byte-identical) on top of the usual refinement of the spec.
func TestMirroredVerifiedDeathAndCrashCombined(t *testing.T) {
	s := Scenario("mb-mirror-death+crash", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
		MaxCrashes:  1,
		PostPickups: true,
		Mirror:      true,
		Faults:      oneFailStop,
	})
	budget := 60000
	if testing.Short() {
		budget = 10000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under replica death + crash:\n%s", rep.Counterexample.Format())
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("no crash explored")
	}
}

// TestBugRecoverSkipResilverCaught seeds the no-resilver mutation: a
// recovery that swaps in the replacement replica but forgets to repair
// it. The checker must find a counterexample (the replacement either
// serves stale reads or leaves the mirror flagged degraded with both
// replicas live), and the counterexample must replay and minimize.
func TestBugRecoverSkipResilverCaught(t *testing.T) {
	s := Scenario("mb-mirror-no-resilver", VariantRecoverNoResilver, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}},
		MaxCrashes:  1,
		PostPickups: true,
		Mirror:      true,
		Faults:      oneFailStop,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 60000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("skipped resilver not caught")
	}
	t.Logf("counterexample:\n%s", rep.Counterexample.Format())

	// The counterexample must be replayable (perennial-check -replay).
	cx := explore.ReplayCx(s, rep.Counterexample.Choices)
	if cx == nil {
		t.Fatal("counterexample did not replay")
	}
	short := explore.Minimize(s, rep.Counterexample.Choices)
	if len(short) > len(rep.Counterexample.Choices) {
		t.Fatalf("minimize grew the schedule: %d -> %d",
			len(rep.Counterexample.Choices), len(short))
	}
	if explore.ReplayCx(s, short) == nil {
		t.Fatal("minimized counterexample did not replay")
	}
}
