package mailboat

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
)

// These tests exercise the writeback crash model: directory operations
// (creates, links, deletes) are volatile until SyncDir, and a crash
// keeps only an enumerated prefix of each directory's un-synced
// operation log. Deliver must therefore fsync the spooled data AND
// SyncDir the mailbox before acking — the checker proves the
// disciplined implementation correct and convicts both missing-sync
// mutations with minimized, replayable counterexamples.

func TestWritebackDisciplinedIsClean(t *testing.T) {
	s := Scenario("mb-writeback-disciplined", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "durable"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation with full sync discipline:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestWritebackSyncDirsAloneIsNotEnough: barriering the directory
// without fsyncing the file data still loses mail — SyncDir makes the
// LINK durable, but the bytes behind it can be torn away, so the
// post-crash pickup sees contents the spec never allowed. The two sync
// disciplines are independent obligations.
func TestWritebackSyncDirsAloneIsNotEnough(t *testing.T) {
	s := Scenario("mb-writeback-dirs-only", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncDirs: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "needs fsync too"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("missing file fsync not caught under writeback")
	}
}

// convictAndMinimize requires the scenario to produce a counterexample
// whose choice script replays, minimizes, and still replays.
func convictAndMinimize(t *testing.T, s *explore.Scenario, what string) {
	t.Helper()
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatalf("%s not caught", what)
	}
	t.Logf("counterexample:\n%s", rep.Counterexample.Format())
	if explore.ReplayCx(s, rep.Counterexample.Choices) == nil {
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

// TestBugAckBeforeSyncCaught seeds the ack-before-sync mutation: the
// deliver fsyncs the spool data but acks on link success without a
// SyncDir barrier, so a crash can drop the un-synced directory entry
// of an ACKED message. Two concurrent delivers matter: a crash is only
// injectable while some thread still runs, so the second delivery is
// what lets the first one be acked before the crash (a pending
// delivery rolling back is spec-ambiguous and convicts nothing).
func TestBugAckBeforeSyncCaught(t *testing.T) {
	s := Scenario("mb-ack-before-sync", VariantAckBeforeSync, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "acked"}, {User: 0, Msg: "racer"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
	})
	convictAndMinimize(t, s, "ack-before-sync")
}

// TestBugRecoverTrustsCacheCaught seeds the recover-trusts-cache
// mutation: Delete acks the unlink with no directory barrier, the
// crash rolls the directory back and resurrects the entry, and
// recovery trusts whatever entries survived — the post pickup then
// returns a message the spec already deleted.
func TestBugRecoverTrustsCacheCaught(t *testing.T) {
	s := Scenario("mb-recover-trusts-cache", VariantRecoverTrustsCache, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "doomed"}},
		PickupUsers: []uint64{0},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
	})
	convictAndMinimize(t, s, "recover-trusts-cache")
}

// TestWritebackPrefixContractClean checks the honest contract of the
// barrier-free fast mode (mailboatd -no-fsync): no refinement claim —
// acked mail may roll back — but the surviving mailbox must be a
// no-holes prefix of the delivery order. The search is exhaustive at
// this size.
func TestWritebackPrefixContractClean(t *testing.T) {
	s := Scenario("mb-writeback-prefix", VariantVerified, ScenarioOptions{
		Config:     Config{Users: 1, RandBound: 4},
		Delivers:   []OpDeliver{{User: 0, Msg: "first"}, {User: 0, Msg: "second"}, {User: 0, Msg: "third"}},
		MaxCrashes: 1,
		Crash:      Writeback,
		Property:   Prefix,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("prefix-durability violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestWritebackFaultSyncFailedBarrierIsRetried interleaves transient
// FaultSync injection with the writeback crash axis: a failed Sync or
// SyncDir must not count as a durability barrier. The disciplined
// implementation abandons the spool file on a failed Sync (fsyncgate)
// and retries a failed SyncDir, so the refinement must still hold.
func TestWritebackFaultSyncFailedBarrierIsRetried(t *testing.T) {
	s := Scenario("mb-writeback-faultsync", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "barrier"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
		Faults:      Faults{Budget: 1, Ops: gfs.Classes(gfs.FaultSync)},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under FaultSync × writeback:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestWritebackSelfCheckDedup runs the dedup soundness self-check on a
// writeback scenario: the model's fingerprint encoding now covers the
// durable directory views and pending operation logs, and the check
// requires dedup to activate, agree with the dedup-less search, and
// keep counterexamples replayable.
func TestWritebackSelfCheckDedup(t *testing.T) {
	s := Scenario("mb-writeback-selfcheck", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "durable"}},
		PickupUsers: []uint64{0},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
	})
	opts := explore.Options{MaxExecutions: 20000}
	if testing.Short() {
		opts.MaxExecutions = 2000
	}
	with, without, err := explore.SelfCheckDedup(s, opts)
	if err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	t.Logf("without dedup: %s", without)
	t.Logf("with dedup:    %s (%d boundaries, %d pruned)",
		with, with.Stats.DistinctBoundaries, with.Stats.PrunedStates)
	if !with.Stats.DedupActive {
		t.Fatal("dedup did not activate on the writeback scenario")
	}
}

// TestWritebackScenarioIsGhostFree pins the scenario-construction rule:
// the ghost machinery commits the spec step atomically at the link,
// which a writeback crash can roll back, so writeback scenarios must
// run ghost-free and rest on the black-box history check.
func TestWritebackScenarioIsGhostFree(t *testing.T) {
	s := Scenario("mb-writeback-ghostfree", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "m"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200})
	if !rep.OK() && strings.Contains(rep.Counterexample.Reason, "ghost") {
		t.Fatalf("writeback scenario ran with ghost machinery:\n%s", rep.Counterexample.Reason)
	}
}
