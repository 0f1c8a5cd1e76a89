package mailboat

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/obs"
)

// These tests check the Mailboat spec under *transient-fault*
// interleavings: the model's file system is wrapped in gfs.Faulty with
// a chooser-driven policy, so the explorer enumerates injected
// create/append/sync/link/delete failures (and short reads) exactly
// like it enumerates schedules and crash points. Deliver's bounded
// retry must either commit the message (ret true) or report a
// transient failure with the mailbox untouched (ret false) — silent
// drops, lost acks, and corrupted pickups all fail refinement.

func TestVerifiedDeliverUnderInjectedFaults(t *testing.T) {
	s := Scenario("mb-faults", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "m"}},
		PostPickups: true,
		Faults: Faults{Budget: 2, Ops: gfs.Classes(
			gfs.FaultCreate, gfs.FaultAppend, gfs.FaultLink, gfs.FaultDelete,
		)},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under injected faults:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestVerifiedFaultsAndCrashCombined is the headline robustness check:
// crash points AND transient faults enumerated together, with recovery
// after every crash, must still refine the spec.
func TestVerifiedFaultsAndCrashCombined(t *testing.T) {
	s := Scenario("mb-faults+crash", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
		MaxCrashes:  1,
		PostPickups: true,
		Faults: Faults{Budget: 1, Ops: gfs.Classes(
			gfs.FaultCreate, gfs.FaultAppend, gfs.FaultLink, gfs.FaultDelete,
		)},
	})
	budget := 60000
	if testing.Short() {
		budget = 10000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under faults+crashes:\n%s", rep.Counterexample.Format())
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("no crash explored")
	}
}

// TestVerifiedShortReadsDoNotCorruptPickup checks the short-read
// hardening: Pickup advances by the bytes actually returned, so a
// faulted (truncated) ReadAt can never truncate a picked-up message.
func TestVerifiedShortReadsDoNotCorruptPickup(t *testing.T) {
	s := Scenario("mb-short-reads", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "a message long enough to split"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      Faults{Budget: 2, Ops: gfs.Classes(gfs.FaultReadShort)},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("short reads corrupted a pickup:\n%s", rep.Counterexample.Format())
	}
}

// TestVerifiedSyncFaultOnBufferedFS combines the deferred-durability
// model with injected fsync failures: Deliver must abandon the spool
// file on a failed sync (fsyncgate) and still never publish a message
// that a crash can truncate.
func TestVerifiedSyncFaultOnBufferedFS(t *testing.T) {
	s := Scenario("mb-sync-fault", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "fsynced"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Buffered,
		Faults:      Faults{Budget: 1, Ops: gfs.Classes(gfs.FaultSync)},
	})
	budget := 400000
	if testing.Short() {
		budget = 50000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation with faulted fsync on buffered fs:\n%s", rep.Counterexample.Format())
	}
}

// TestDeliverRetriesExhaustedReportsFailure drives Deliver directly
// against an always-failing append layer: every attempt must clean up
// its spool file, and the final result must be a reported transient
// failure with an untouched mailbox and no leaked descriptors.
func TestDeliverRetriesExhaustedReportsFailure(t *testing.T) {
	m := machine.New(machine.Options{})
	c := Config{Users: 1, RandBound: 4, DeliverRetries: 2}
	fs := gfs.NewModel(m, Dirs(c))
	faulty := gfs.NewFaulty(fs, gfs.AlwaysPolicy{Ops: map[gfs.FaultOp]bool{gfs.FaultAppend: true}})
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		mb := Init(mt, nil, faulty, c)
		if mb.Deliver(mt, nil, 0, []byte("mail")) {
			mt.Failf("delivery reported success under always-failing appends")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if n := len(fs.PeekDir(SpoolDir)); n != 0 {
		t.Fatalf("failed delivery leaked %d spool files", n)
	}
	if n := len(fs.PeekDir(UserDir(0))); n != 0 {
		t.Fatalf("failed delivery published %d messages", n)
	}
	if n := fs.OpenFDs(); n != 0 {
		t.Fatalf("failed delivery leaked %d fds", n)
	}
	_, faults := faulty.Counters()
	if faults[gfs.FaultAppend] != 2 {
		t.Fatalf("expected 2 injected append faults (one per attempt), got %d", faults[gfs.FaultAppend])
	}
}

// TestDeliverRecoversFromSingleFault seeds exactly one append fault:
// the retry must commit the message on its second attempt.
func TestDeliverRecoversFromSingleFault(t *testing.T) {
	m := machine.New(machine.Options{})
	c := Config{Users: 1, RandBound: 8}
	fs := gfs.NewModel(m, Dirs(c))
	pol := &gfs.SeededPolicy{Seed: 1, MaxFaults: 1}
	pol.Rates[gfs.FaultAppend] = 1 // every append faults, but MaxFaults caps at one
	faulty := gfs.NewFaulty(fs, pol)
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		mb := Init(mt, nil, faulty, c)
		if !mb.Deliver(mt, nil, 0, []byte("mail")) {
			mt.Failf("delivery failed despite retry budget")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if n := len(fs.PeekDir(UserDir(0))); n != 1 {
		t.Fatalf("expected 1 delivered message, got %d", n)
	}
	if n := len(fs.PeekDir(SpoolDir)); n != 0 {
		t.Fatalf("delivery left %d spool files", n)
	}
}

// dieOnSyncDir fail-stops the fault layer above it the first time a
// directory barrier reaches it — a disk that dies between a publish
// and its barrier.
type dieOnSyncDir struct {
	gfs.System
	f        *gfs.Faulty
	barriers int
}

func (d *dieOnSyncDir) SyncDir(t gfs.T, dir string) bool {
	if d.barriers++; d.barriers > 100 {
		panic("barrier loop is spinning on a dead store")
	}
	d.f.FailStopNow("died under the barrier")
	return false
}

// TestStoreLatchesSeenThroughWrappers: the fast-abort checks must find
// the fault layer's latches under whatever wraps it. With gfs.Observed
// (or an envelope) outermost — every metrics-enabled daemon running a
// drill — a direct type assertion on the stack's top answered false,
// so a full store burnt every retry and a store that died under a
// directory barrier spun on it forever.
func TestStoreLatchesSeenThroughWrappers(t *testing.T) {
	cfg := Config{Users: 1, RandBound: 1 << 20, SyncDirs: true, DeliverRetries: 4, Metrics: NewMetrics(obs.NewRegistry())}
	fs, err := gfs.NewOS(t.TempDir(), Dirs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.CloseAll()
	hook := &dieOnSyncDir{System: fs}
	f := gfs.NewFaulty(hook, gfs.NeverPolicy{})
	hook.f = f
	th := gfs.NewNative(1)
	mb := Init(th, nil, gfs.NewObserved(gfs.NewChecksummed(f, Dirs(cfg)), nil), cfg)

	if mb.storeNoSpace() || mb.storeDead() {
		t.Fatal("healthy store reads as latched")
	}
	f.NoSpaceNow("test")
	if !mb.storeNoSpace() {
		t.Fatal("no-space latch invisible through Observed(Checksummed(Faulty))")
	}
	if mb.Deliver(th, nil, 0, []byte("no room")) {
		t.Fatal("deliver onto a full store succeeded")
	}
	if n := cfg.Metrics.DeliverAttempts.Value(); n != 1 {
		t.Fatalf("deliver onto a full store made %d attempts of %d; the fast abort allows one", n, cfg.DeliverRetries)
	}
	f.FreeSpace()

	// The link publishes, then the disk dies under the barrier: Deliver
	// must withhold its ack and return, not retry the barrier forever.
	if mb.Deliver(th, nil, 0, []byte("dies mid-barrier")) {
		t.Fatal("deliver acked across a barrier that never committed")
	}
	if !mb.storeDead() {
		t.Fatal("fail-stop latch invisible through Observed(Checksummed(Faulty))")
	}
}
