package replicateddisk

import (
	"strings"
	"testing"

	"repro/internal/explore"
)

func TestSpecMatchesFigure3(t *testing.T) {
	sp := Spec(2)
	st := sp.Init()
	// write in bounds
	next, ub := sp.Step(st, OpWrite{A: 1, V: 7}, nil)
	if ub || len(next) != 1 {
		t.Fatalf("write: next=%v ub=%v", next, ub)
	}
	st = next[0]
	// read back
	next, ub = sp.Step(st, OpRead{A: 1}, uint64(7))
	if ub || len(next) != 1 {
		t.Fatalf("read: next=%v ub=%v", next, ub)
	}
	// read with the wrong value is not allowed
	next, _ = sp.Step(st, OpRead{A: 1}, uint64(8))
	if len(next) != 0 {
		t.Fatal("read of wrong value allowed")
	}
	// out of bounds is UB
	if _, ub = sp.Step(st, OpRead{A: 9}, uint64(0)); !ub {
		t.Fatal("out-of-bounds read not UB")
	}
	if _, ub = sp.Step(st, OpWrite{A: 9, V: 0}, nil); !ub {
		t.Fatal("out-of-bounds write not UB")
	}
	// crash loses nothing
	if crashed := sp.Crash(st); len(crashed) != 1 || sp.Key(crashed[0]) != sp.Key(st) {
		t.Fatal("crash transition must be the identity")
	}
}

func TestVerifiedSequentialSmoke(t *testing.T) {
	s := Verified("rd-seq", ScenarioOptions{
		Size:      2,
		Writers:   []OpWrite{{A: 0, V: 1}},
		PostReads: []uint64{0, 1},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 1})
	if !rep.OK() {
		t.Fatalf("sequential run failed:\n%s", rep.Counterexample.Format())
	}
}

func TestVerifiedConcurrentWritersExhaustive(t *testing.T) {
	// Two writers to the same address plus crash injection; the full
	// bounded space must be clean.
	s := Verified("rd-2w", ScenarioOptions{
		Size:       1,
		Writers:    []OpWrite{{A: 0, V: 1}, {A: 0, V: 2}},
		MaxCrashes: 1,
		PostReads:  []uint64{0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Logf("note: search was budget-bounded at %d executions", rep.Executions)
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("exploration never exercised a crash")
	}
}

func TestVerifiedWriterReaderConcurrent(t *testing.T) {
	s := Verified("rd-wr", ScenarioOptions{
		Size:       1,
		Writers:    []OpWrite{{A: 0, V: 5}},
		Readers:    []uint64{0},
		MaxCrashes: 1,
		PostReads:  []uint64{0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestVerifiedFailoverExhaustive(t *testing.T) {
	// Disk 1 may fail at any read; reads must transparently fail over.
	s := Verified("rd-failover", ScenarioOptions{
		Size:       1,
		Writers:    []OpWrite{{A: 0, V: 3}},
		D1MayFail:  true,
		MaxCrashes: 1,
		PostReads:  []uint64{0, 0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestVerifiedTwoAddressesWithCrash(t *testing.T) {
	s := Verified("rd-2addr", ScenarioOptions{
		Size:       2,
		Writers:    []OpWrite{{A: 0, V: 1}, {A: 1, V: 2}},
		MaxCrashes: 1,
		PostReads:  []uint64{0, 1},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 60000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestBugNoRecoveryFoundBySearch(t *testing.T) {
	// §3.1: crash between the two disk writes leaves the disks out of
	// sync; with no recovery, a disk-1 failure exposes the old value.
	s := BugNoRecovery("rd-bug-norecovery", ScenarioOptions{
		Size:       1,
		Writers:    []OpWrite{{A: 0, V: 1}},
		D1MayFail:  true,
		MaxCrashes: 1,
		PostReads:  []uint64{0, 0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("missing-recovery bug not found")
	}
	if !strings.Contains(rep.Counterexample.Reason, "refinement failure") {
		t.Fatalf("unexpected failure kind:\n%s", rep.Counterexample.Format())
	}
}

func TestBugZeroingRecoveryFoundBySearch(t *testing.T) {
	// §1: recovery that zeroes both disks reverts a completed write.
	s := BugZeroingRecovery("rd-bug-zeroing", ScenarioOptions{
		Size:       1,
		Writers:    []OpWrite{{A: 0, V: 1}, {A: 0, V: 2}},
		MaxCrashes: 1,
		PostReads:  []uint64{0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("zeroing-recovery bug not found")
	}
}

func TestBugD1OnlyFoundBySearch(t *testing.T) {
	// Writes that skip disk 2 are exposed by failover even without a
	// crash.
	s := BugD1Only("rd-bug-d1only", ScenarioOptions{
		Size:      1,
		Writers:   []OpWrite{{A: 0, V: 1}},
		D1MayFail: true,
		PostReads: []uint64{0, 0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("d1-only bug not found")
	}
}

func TestBugNoLockFoundBySearch(t *testing.T) {
	// Unlocked writes let the two disks disagree about the final value;
	// failover then observes value flapping.
	s := BugNoLock("rd-bug-nolock", ScenarioOptions{
		Size:      1,
		Writers:   []OpWrite{{A: 0, V: 1}, {A: 0, V: 2}},
		D1MayFail: true,
		PostReads: []uint64{0, 0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 400000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("lock-free write bug not found")
	}
}

func TestCounterexampleIsReplayable(t *testing.T) {
	s := BugZeroingRecovery("rd-bug-zeroing-replay", ScenarioOptions{
		Size:       1,
		Writers:    []OpWrite{{A: 0, V: 1}, {A: 0, V: 2}},
		MaxCrashes: 1,
		PostReads:  []uint64{0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 200000})
	if rep.OK() {
		t.Fatal("expected a counterexample")
	}
	cx := explore.ReplayCx(s, rep.Counterexample.Choices)
	if cx == nil {
		t.Fatal("replaying the counterexample choices did not reproduce the failure")
	}
	if len(cx.Trace) == 0 {
		t.Fatal("replay produced no trace")
	}
}

func TestVerifiedStressRandomized(t *testing.T) {
	s := Verified("rd-stress", ScenarioOptions{
		Size:       2,
		Writers:    []OpWrite{{A: 0, V: 1}, {A: 1, V: 2}, {A: 0, V: 3}},
		Readers:    []uint64{0, 1},
		MaxCrashes: 2,
		PostReads:  []uint64{0, 1},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 1, StressExecutions: 2000, StressSeed: 42})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under stress:\n%s", rep.Counterexample.Format())
	}
}
