package mailboat

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
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

// prefixScenario is the buffered contract's workload: two concurrent
// recorded deliveries on a barrier-free writeback store, a crash, and
// the recorded post-pickup, checked against PrefixSpec.
func prefixScenario(name string, v Variant) *explore.Scenario {
	return Scenario(name, v, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 4},
		Delivers:    []OpDeliver{{User: 0, Msg: "first"}, {User: 0, Msg: "second"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
		Property:    Prefix,
	})
}

// TestWritebackPrefixContractClean checks the buffered contract of the
// barrier-free fast mode (mailboatd -no-fsync) exhaustively: acked mail
// may roll back, but what survives must be, per mailbox, a prefix of its
// operations since the crash, torn only where a link outlived its data.
// The complete search is about 2,200 executions on two workers with
// sleep sets and crash states evaluated in place (28,000 while every
// crash state ran, 1.7M without sleep sets), so -short skips it.
func TestWritebackPrefixContractClean(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search of about 2,200 executions")
	}
	rep := explore.Run(prefixScenario("mb-writeback-prefix", VariantVerified), explore.Options{MaxExecutions: 3000000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("prefix-durability violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestBugRecoverDropsTornCaught seeds the Prefix row's bug: a recovery
// that deletes the messages a crash left empty. When the first delivery
// returned before the second began, a crash may keep both links and
// tear the first body; deleting it leaves the second above a hole.
func TestBugRecoverDropsTornCaught(t *testing.T) {
	s := prefixScenario("mb-recover-drops-torn", VariantRecoverDropsTorn)
	convictAndMinimize(t, s, "recover-drops-torn")
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	if !strings.Contains(rep.Counterexample.Reason, "refinement failure") {
		t.Errorf("convicted by %q, want a refinement failure", rep.Counterexample.Reason)
	}
}

// TestWritebackLeakIsAudited is the negative control of the resource
// audit every non-ghost, non-mirror scenario runs between eras: a
// pickup that leaks one descriptor on a writeback store is convicted as
// a resource leak.
func TestWritebackLeakIsAudited(t *testing.T) {
	s := Scenario("mb-writeback-leak", VariantPickupLeaky, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "m"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	if rep.OK() || !strings.Contains(rep.Counterexample.Reason, "resource leak: 1 file descriptors still open") {
		t.Fatalf("leaked descriptor not convicted as a resource leak: %s", rep)
	}
}

// TestWritebackFaultSyncFailedBarrierIsRetried interleaves transient
// fault.Sync injection with the writeback crash axis: a failed Sync or
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
		Faults:      Faults{Budget: 1, Ops: fault.Classes(fault.Sync)},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under fault.Sync × writeback:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestWritebackSelfCheckDedup runs the reductions' self-check on a
// writeback scenario: the model's fingerprint encoding now covers the
// durable directory views and pending operation logs, and the check
// requires dedup to activate, agree with the plain search, and keep
// counterexamples replayable. The reduced search completes (461
// executions at one worker, more at several) where the plain one stops
// at the budget (it completes at 132,073), so every outcome the plain
// search reaches must be among the reduced search's.
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
	with, without, err := explore.SelfCheck(s, opts)
	if err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	t.Logf("without reductions: %s", without)
	t.Logf("with reductions:    %s (%d boundaries, %d pruned)",
		with, with.Stats.DistinctBoundaries, with.Stats.PrunedStates)
	if with.Stats.DistinctBoundaries == 0 {
		t.Fatal("dedup claimed no crash boundary on the writeback scenario")
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
