package mailboat

import (
	"testing"

	"repro/internal/explore"
)

// These tests check the mail server against the silent-corruption fault
// class (gfs.FaultCorrupt): the explorer may durably mutate one file's
// bytes — a bit flip or a truncation, enumerated as separate branches —
// at any file open. On a single backend the property is detection
// (corruption may lose data, never silently); on the mirrored store the
// property is full refinement (the mirror must heal rot from the peer,
// so corruption is never visible at all).

// TestCorruptDetectionExhaustive runs the verified server over the
// checksum envelope with the corruption budget armed. The message is
// long enough that a bit flip in the middle of the stored file lands in
// the data payload — the worst case for a trusting reader, because the
// mangled bytes still parse as a message.
func TestCorruptDetectionExhaustive(t *testing.T) {
	s := Scenario("mb-corrupt-detect", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "the quick brown fox."}},
		MaxCrashes:  1,
		PostPickups: true,
		Checksum:    true,
		Faults:      oneCorruption,
		Property:    Detection,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under corruption:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
	if rep.CrashedExecutions == 0 {
		t.Error("no crash explored")
	}
}

// TestCorruptMirrorHealsExhaustive is the headline integrity check:
// corruption of either replica at any open, plus a crash, and the full
// refinement property stands — reads heal from the peer, recovery
// scrubs and resilvers, and the between-era invariant demands
// byte-identical replicas. Rot must never surface at all.
func TestCorruptMirrorHealsExhaustive(t *testing.T) {
	s := Scenario("mb-mirror-corrupt", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "m"}},
		MaxCrashes:  1,
		PostPickups: true,
		Mirror:      true,
		Checksum:    true,
		Faults:      oneCorruption,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under mirrored corruption:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
	if rep.CrashedExecutions == 0 {
		t.Error("no crash explored")
	}
}

// TestCorruptMirrorTwoDeliversClean runs the verified server on the
// exact workload that convicts the no-verify-resilver mutation below —
// two concurrent delivers, so one can be ACKED before the crash and the
// resilver must then preserve it through a corruption strike. The space
// is too large to exhaust (>3M executions), so this is a budget-bounded
// clean check: same budget that finds the seeded bug in 21 executions.
func TestCorruptMirrorTwoDeliversClean(t *testing.T) {
	s := Scenario("mb-mirror-corrupt-2d", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
		MaxCrashes:  1,
		PostPickups: true,
		Mirror:      true,
		Checksum:    true,
		Faults:      oneCorruption,
	})
	budget := 20000
	if testing.Short() {
		budget = 5000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under mirrored corruption:\n%s", rep.Counterexample.Format())
	}
}

// TestDedupSelfCheckCorrupt runs the dedup soundness self-check on the
// detection scenario: the fingerprint must cover the envelope layer's
// detection counter and the acked-payload set, or pruning would merge
// states the Post property distinguishes.
func TestDedupSelfCheckCorrupt(t *testing.T) {
	s := Scenario("mb-corrupt-selfcheck", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "the quick brown fox."}},
		MaxCrashes:  1,
		PostPickups: true,
		Checksum:    true,
		Faults:      oneCorruption,
		Property:    Detection,
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
}

// TestBugTrustReadsCaught seeds the trusting-reader mutation: the
// envelope layer decodes without verifying checksums. A bit flip in the
// data payload then sails through to a pickup as bytes nobody ever sent
// — the detection property's garbage check — and a flip that breaks
// framing loses the message with the detection counter still at zero.
func TestBugTrustReadsCaught(t *testing.T) {
	s := Scenario("mb-trust-reads", VariantTrustReads, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "the quick brown fox."}},
		MaxCrashes:  1,
		PostPickups: true,
		Checksum:    true,
		Faults:      oneCorruption,
		Property:    Detection,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("trusting reads not caught")
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

// TestBugResilverNoVerifyCaught seeds the no-verify-resilver mutation:
// the resilver copies source bytes without checking their envelope, so
// rot injected at the resilver's own read of the source is replicated
// onto the peer — both copies now rotten, the acked message unreadable
// everywhere, a refinement violation at the post pickup. Two concurrent
// delivers matter: a crash is only injectable while some thread still
// runs, so the second delivery is what lets the first one be *acked*
// before the crash (a pending delivery's loss is spec-ambiguous and
// would mask the bug).
func TestBugResilverNoVerifyCaught(t *testing.T) {
	s := Scenario("mb-no-verify-resilver", VariantResilverNoVerify, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
		MaxCrashes:  1,
		PostPickups: true,
		Mirror:      true,
		Checksum:    true,
		Faults:      oneCorruption,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("unverified resilver not caught")
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

// TestBugReplaySpoolTornCaught seeds the torn-append bug pair: a
// delivery that spools one byte per append (synced before the link, so
// published messages are fine) and a recovery that replays leftover
// spool files into the mailbox. Only a TORN crash tail exposes it — a
// partial prefix of the one-byte appends is not a message anyone sent,
// yet the replay publishes it. Losing the whole tail leaves an empty
// spool file (swept), and keeping all of it replays a complete message
// (benign), so the bug is invisible without the buffered model's
// torn-append enumeration.
func TestBugReplaySpoolTornCaught(t *testing.T) {
	s := Scenario("mb-replay-spool", VariantReplaySpool, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "ab"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Buffered,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("torn spool replay not caught")
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
