package mailboat

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
	"repro/internal/machine"
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

// mirrorDeathAndCrash is the two-delivery mirrored workload with one
// replica death and one crash, running v.
func mirrorDeathAndCrash(v Variant) *explore.Scenario {
	return Scenario("mb-mirror-death+crash", v, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
		MaxCrashes:  1,
		PostPickups: true,
		Mirror:      true,
		Faults:      oneFailStop,
	})
}

// TestMirroredVerifiedDeathAndCrashCombined is the headline
// availability check: crash points AND a permanent replica death
// enumerated together. Every crash reboots onto a fresh stack, whose
// recovery resilvers the replaced replica from the survivor; the
// between-era invariant then demands full redundancy (not degraded,
// replicas byte-identical) on top of the usual refinement of the spec.
// At one worker the search completes clean in 56,645 executions
// (189,042 while every crash state ran); -short stops it at 10,000.
func TestMirroredVerifiedDeathAndCrashCombined(t *testing.T) {
	s := mirrorDeathAndCrash(VariantVerified)
	opts := explore.Options{MaxExecutions: 400000}
	if testing.Short() {
		opts.MaxExecutions = 10000
	}
	rep := explore.Run(s, opts)
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under replica death + crash:\n%s", rep.Counterexample.Format())
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("no crash explored")
	}
	if !rep.Complete && !testing.Short() {
		t.Fatalf("search stopped at its budget after %d executions", rep.Executions)
	}
}

// TestMirroredAcksBeforeGenerationBump is the regression check of
// markFailed's order. The schedule below lost acknowledged mail while
// markFailed latched the dead replica before the survivor's generation
// bump was durable: replica 0 fail-stops at delivery "a"'s spool delete,
// delivery "b" runs to its ack while markFailed lists the survivor's
// markers, and the site crashes before the bump's create. The generations
// tie, and the boot resilver copies the stale replica 0 over the
// survivor. Production now makes "b" wait for the bump; the old order,
// kept as VariantFlagBeforeBump, still loses the message on the same
// schedule.
func TestMirroredAcksBeforeGenerationBump(t *testing.T) {
	script := append(make([]int, 22), 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	if cx := explore.ReplayCx(mirrorDeathAndCrash(VariantVerified), script); cx != nil {
		t.Fatalf("production loses acked mail on the replay:\n%s", cx.Format())
	}
	cx := explore.ReplayCx(mirrorDeathAndCrash(VariantFlagBeforeBump), script)
	if cx == nil {
		t.Fatal("the flag-before-bump variant no longer loses mail on the replay: the schedule does not reach the race")
	}
	got := cx.Format()
	for _, want := range []string{`Deliver(0, "b") -> true`, "crash", `Pickup(0) -> [{msg1 a}]`} {
		if !strings.Contains(got, want) {
			t.Fatalf("the replay failed differently (want %q):\n%s", want, got)
		}
	}
}

// TestBugFlagBeforeBumpCaught: the search convicts the old markFailed
// order on the combined workload, and the counterexample minimizes to a
// replayable core.
func TestBugFlagBeforeBumpCaught(t *testing.T) {
	s := mirrorDeathAndCrash(VariantFlagBeforeBump)
	rep := explore.Run(s, explore.Options{MaxExecutions: 400000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("flag-before-bump not convicted")
	}
	min := explore.Minimize(s, rep.Counterexample.Choices)
	if explore.ReplayCx(s, min) == nil {
		t.Fatal("minimized counterexample does not replay")
	}
	t.Logf("counterexample: %d choices, minimized to %d", len(rep.Counterexample.Choices), len(min))
}

// TestRecoveryBootsAFreshStack pins the reboot. Replaying an execution
// in which replica 0 dies and the site then crashes, the recovery era
// runs on a stack gfs.NewStack built afresh, as the daemon's boot does,
// not on the pre-crash stack with its dead replica brought back. That
// stack's mirror reports no failed replica and no failovers.
func TestRecoveryBootsAFreshStack(t *testing.T) {
	s := Scenario("mb-mirror-reboot", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}},
		MaxCrashes:  1,
		PostPickups: true,
		Mirror:      true,
		Faults:      oneFailStop,
	})
	var crashed, booted *gfs.Stack
	var st gfs.MirrorStatus
	orig := s.Recover
	s.Recover = func(mt *machine.T, wAny any) {
		w := wAny.(*World)
		crashed = w.Stack
		orig(mt, w)
		booted = w.Stack
		st = booted.Mirror().Status()
	}
	// Replica 0 fail-stops at the delivery's link; the site crashes two
	// steps later.
	script := append(make([]int, 19), 1, 0, 0, 1)
	if cx := explore.ReplayCx(s, script); cx != nil {
		t.Fatalf("the replay failed:\n%s", cx.Format())
	}
	if crashed == nil || !crashed.Faulty(0).FailStopped() {
		t.Fatal("the script did not crash after replica 0's death")
	}
	if booted == crashed {
		t.Fatal("the recovery era ran on the pre-crash stack")
	}
	if !st.Replicas[0].Live || !st.Replicas[1].Live || st.Failovers != 0 {
		t.Errorf("the rebooted mirror: %+v", st)
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
