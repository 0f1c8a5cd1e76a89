package mailboat

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
)

// These tests exercise resource exhaustion as a fault axis: gfs.Faulty's
// fault.NoSpace latches the store ENOSPC at a chooser-picked write, after
// which every write fails until a delete frees space. The disciplined
// implementation aborts cleanly (never ack-then-lose), recovery's
// orphan-spool sweep doubles as the garbage collector that returns
// space, and the two seeded mutations — acking a refused delivery, and
// a delivery-time "GC" that eats live spool files — are convicted with
// minimized, replayable counterexamples.

func nospaceGCScenario(v Variant, delivers []OpDeliver, crashes int, randBound uint64) *explore.Scenario {
	return Scenario("mb-nospace-gc", v, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: randBound},
		Delivers:    delivers,
		MaxCrashes:  crashes,
		PostPickups: true,
		Faults:      oneDiskFull,
		Property:    Exhaustion,
	})
}

// TestNoSpaceCleanAbortExhaustive: full refinement (ghost-annotated)
// with the disk-full latch racing a concurrent pickup. A latched
// delivery must land as the spec's transient failure — mailbox
// untouched, sender told no — never as an ack, and never by corrupting
// what the pickup observes. Completes (exhaustive) at this budget.
func TestNoSpaceCleanAbortExhaustive(t *testing.T) {
	budget := 40000
	if testing.Short() {
		budget = 10000
	}
	s := Scenario("mb-nospace-clean-abort", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      oneDiskFull,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under disk-full:\n%s", rep.Counterexample.Format())
	}
	if !testing.Short() && !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestNoSpaceCleanAbortCrashMatrix is the full matrix — concurrent
// deliver and pickup, a crash anywhere, the latch anywhere — and is
// correspondingly heavy, so -short skips it. The latch surviving the
// crash (a full disk is still full after the reboot) must not change
// any answer recovery gives.
func TestNoSpaceCleanAbortCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full crash × latch × schedule matrix; run without -short")
	}
	s := Scenario("mb-nospace-crash-matrix", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		MaxCrashes:  1,
		PostPickups: true,
		Faults:      oneDiskFull,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under disk-full + crash:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("no crash explored")
	}
}

// TestNoSpaceGCReclaimsExhaustive: the exhaustion contract, with the
// latch crossing TWO crash/recovery boundaries. The crash strands
// whatever was spooled, the rebooted stack is still full, recovery's
// sweep reclaims the spool (clearing the latch), the recorded
// post-pickups must refine Spec, and the probe pins writability to the
// latch state. Double-crash also pins the durable-latch budget
// accounting: the carried latch must not re-spend the chooser budget.
func TestNoSpaceGCReclaimsExhaustive(t *testing.T) {
	s := nospaceGCScenario(VariantVerified, []OpDeliver{{User: 0, Msg: "a"}}, 2, 3)
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("exhaustion contract violated:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("no crash explored")
	}
}

// TestNoSpaceSelfCheckDedup runs the dedup soundness self-check on the
// exhaustion scenario: the recovery era boots a fresh stack, so its
// fingerprint covers what crosses the reboot — the disk-full latch
// (carried onto the fresh layer) and the chooser policy's spent budget —
// and the boundary covers the history: a pruned boundary differing in
// any of them would be a soundness hole.
func TestNoSpaceSelfCheckDedup(t *testing.T) {
	s := nospaceGCScenario(VariantVerified, []OpDeliver{{User: 0, Msg: "a"}}, 2, 3)
	with, without, err := explore.SelfCheck(s, explore.Options{MaxExecutions: 20000})
	if err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	t.Logf("without dedup: %s", without)
	t.Logf("with dedup:    %s (%d boundaries, %d pruned)",
		with, with.Stats.DistinctBoundaries, with.Stats.PrunedStates)
}

// TestBugAckOnNoSpaceCaught seeds the ack-after-ENOSPC mutation: the
// full disk refused the delivery, nothing was published, and the client
// heard yes — acked-but-absent, a refinement failure at the post
// pickup.
func TestBugAckOnNoSpaceCaught(t *testing.T) {
	s := nospaceGCScenario(VariantDeliverAckOnNoSpace, []OpDeliver{{User: 0, Msg: "a"}}, 1, 3)
	convictAndMinimize(t, s, "ack-after-enospc")
}

// TestBugGreedySpoolGCCaught seeds the gc-eats-live-spool mutation: on
// ENOSPC the delivery sweeps the whole spool directory, eating a
// concurrent delivery's spooled-but-unlinked message; its link source
// vanishes and the model's link assertion convicts.
func TestBugGreedySpoolGCCaught(t *testing.T) {
	s := nospaceGCScenario(VariantDeliverGreedySpoolGC,
		[]OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}}, 0, 4)
	convictAndMinimize(t, s, "gc-eats-live-spool")
}

// TestQuotaRefusesAndCreditsOnDelete drives the per-user byte quota on
// the real file system: a delivery that would exceed QuotaBytes is
// refused up front with the mailbox untouched, deleting mail credits
// the bytes back, and recovery re-derives usage from the store.
func TestQuotaRefusesAndCreditsOnDelete(t *testing.T) {
	c := Config{Users: 2, RandBound: 1 << 20, QuotaBytes: 10}
	osfs, err := gfs.NewOS(t.TempDir(), Dirs(c))
	if err != nil {
		t.Fatal(err)
	}
	defer osfs.CloseAll()
	th := gfs.NewNative(1)

	mb := Init(th, nil, osfs, c)
	if !mb.Deliver(th, nil, 0, []byte("sixbyt")) {
		t.Fatal("under-quota delivery refused")
	}
	if got := mb.QuotaUsed(0); got != 6 {
		t.Fatalf("quota used = %d, want 6", got)
	}
	if mb.Deliver(th, nil, 0, []byte("fivebytes")) {
		t.Fatal("over-quota delivery accepted")
	}
	if got := mb.QuotaUsed(0); got != 6 {
		t.Fatalf("quota used after refusal = %d, want 6 (refund)", got)
	}
	// The other user's quota is independent.
	if !mb.Deliver(th, nil, 1, []byte("tenbytes!!")) {
		t.Fatal("user 1 refused despite an empty mailbox")
	}
	// Deleting the message credits its bytes back and reopens the door.
	msgs := mb.Pickup(th, nil, 0)
	if len(msgs) != 1 {
		t.Fatalf("user 0 has %d messages", len(msgs))
	}
	if !mb.Delete(th, nil, 0, msgs[0].ID) {
		t.Fatal("delete failed")
	}
	mb.Unlock(th, nil, 0)
	if got := mb.QuotaUsed(0); got != 0 {
		t.Fatalf("quota used after delete = %d, want 0", got)
	}
	if !mb.Deliver(th, nil, 0, []byte("fivebytes")) {
		t.Fatal("delivery refused after the quota was credited back")
	}

	// Recovery re-derives usage from the store, not from memory.
	mb = Recover(th, nil, osfs, c, nil)
	if got := mb.QuotaUsed(0); got != 9 {
		t.Fatalf("quota used after recovery = %d, want 9", got)
	}
	if got := mb.QuotaUsed(1); got != 10 {
		t.Fatalf("user 1 quota after recovery = %d, want 10", got)
	}
	if mb.Deliver(th, nil, 1, []byte("x")) {
		t.Fatal("user 1 over-quota delivery accepted after recovery")
	}
}
