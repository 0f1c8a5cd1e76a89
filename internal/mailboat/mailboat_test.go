package mailboat

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/spec"
)

func cfg2() Config { return Config{Users: 2, RandBound: 3} }

func TestSpecDeliverInsertsUnderFreshID(t *testing.T) {
	sp := Spec(Config{Users: 1, RandBound: 2})
	st := sp.Init()
	next, ub := sp.Step(st, OpDeliver{User: 0, Msg: "hi"}, true)
	if ub || len(next) != 2 {
		t.Fatalf("deliver outcomes=%d ub=%v", len(next), ub)
	}
	// Deliver again into one of them: only one free ID remains.
	next2, _ := sp.Step(next[0], OpDeliver{User: 0, Msg: "yo"}, true)
	if len(next2) != 1 {
		t.Fatalf("second deliver outcomes=%d", len(next2))
	}
	// Mailbox full: a successful delivery is impossible...
	next3, _ := sp.Step(next2[0], OpDeliver{User: 0, Msg: "zz"}, true)
	if len(next3) != 0 {
		t.Fatalf("third deliver outcomes=%d", len(next3))
	}
	// ...but a reported transient failure is always allowed, and leaves
	// the mailbox untouched.
	nextF, _ := sp.Step(next2[0], OpDeliver{User: 0, Msg: "zz"}, false)
	if len(nextF) != 1 || sp.Key(nextF[0]) != sp.Key(next2[0]) {
		t.Fatalf("failed deliver outcomes=%d", len(nextF))
	}
}

func TestSpecPickupReturnsSortedMailbox(t *testing.T) {
	sp := Spec(Config{Users: 1, RandBound: 2})
	st := sp.Init()
	next, _ := sp.Step(st, OpDeliver{User: 0, Msg: "hi"}, true)
	st = next[0]
	got, _ := sp.Step(st, OpPickup{User: 0}, []Message{{ID: MsgName(0), Contents: "hi"}})
	got2, _ := sp.Step(st, OpPickup{User: 0}, []Message{{ID: MsgName(1), Contents: "hi"}})
	if len(got)+len(got2) != 1 {
		t.Fatalf("pickup matched %d+%d states", len(got), len(got2))
	}
}

func TestSpecDeleteUnknownIDIsUB(t *testing.T) {
	sp := Spec(Config{Users: 1, RandBound: 2})
	if _, ub := sp.Step(sp.Init(), OpDelete{User: 0, ID: "msg0"}, nil); !ub {
		t.Fatal("delete of unknown ID not UB")
	}
}

func TestVerifiedSequentialDeliverPickup(t *testing.T) {
	s := Scenario("mb-seq", VariantVerified, ScenarioOptions{
		Config:      cfg2(),
		Delivers:    []OpDeliver{{User: 0, Msg: "hello"}},
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 1})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestVerifiedDeliverCrashExhaustive(t *testing.T) {
	s := Scenario("mb-crash", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "m"}},
		MaxCrashes:  1,
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
	if rep.CrashedExecutions == 0 {
		t.Fatal("no crash explored")
	}
}

func TestVerifiedConcurrentDeliverPickup(t *testing.T) {
	s := Scenario("mb-conc", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
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

func TestVerifiedConcurrentWithCrash(t *testing.T) {
	s := Scenario("mb-conc-crash", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		MaxCrashes:  1,
		PostPickups: true,
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
	if rep.CrashedExecutions == 0 {
		t.Fatal("no crash explored")
	}
}

func TestVerifiedTwoUsersIsolated(t *testing.T) {
	s := Scenario("mb-2users", VariantVerified, ScenarioOptions{
		Config:      cfg2(),
		Delivers:    []OpDeliver{{User: 0, Msg: "for0"}, {User: 1, Msg: "for1"}},
		MaxCrashes:  1,
		PostPickups: true,
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

func TestVerifiedStressRandomized(t *testing.T) {
	s := Scenario("mb-stress", VariantVerified, ScenarioOptions{
		Config:      cfg2(),
		Delivers:    []OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}, {User: 1, Msg: "c"}},
		PickupUsers: []uint64{0, 1},
		MaxCrashes:  2,
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 1, StressExecutions: 1500, StressSeed: 7})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation under stress:\n%s", rep.Counterexample.Format())
	}
}

func TestBugDeliverDirectPartialMessageVisible(t *testing.T) {
	s := Scenario("mb-bug-direct", VariantDeliverDirect, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "full message"}},
		PickupUsers: []uint64{0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("unspooled delivery's partial visibility not found")
	}
}

func TestBugPickupInfiniteLoopCaught(t *testing.T) {
	// §9.5: messages of at least one full chunk loop forever.
	big := strings.Repeat("x", gfs.ReadChunk)
	s := Scenario("mb-bug-loop", VariantPickupNoAdvance, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: big}},
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 10})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("infinite pickup loop not caught")
	}
	if !strings.Contains(rep.Counterexample.Reason, "infinite loop") {
		t.Fatalf("unexpected failure:\n%s", rep.Counterexample.Reason)
	}
}

func TestBugPickupSmallMessageWorksEvenWithNoAdvance(t *testing.T) {
	// Messages under one chunk terminate the buggy loop — the bug only
	// bites past 512 bytes, exactly as §9.5 describes.
	s := Scenario("mb-bug-loop-small", VariantPickupNoAdvance, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "short"}},
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50})
	if !rep.OK() {
		t.Fatalf("short messages should not trigger the loop bug:\n%s", rep.Counterexample.Format())
	}
}

func TestBugRecoverWipesMailboxesCaught(t *testing.T) {
	s := Scenario("mb-bug-wipe", VariantRecoverWipes, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "keep me"}, {User: 0, Msg: "other"}},
		MaxCrashes:  1,
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("mailbox-wiping recovery not found")
	}
}

func TestBugFdLeakNotARefinementViolation(t *testing.T) {
	// The checker accepts the leaky pickup — Perennial's proofs do not
	// cover resource leaks (§9.5) — but the model's FD counter sees it.
	s := Scenario("mb-bug-leak", VariantPickupLeaky, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "mail"}},
		PickupUsers: []uint64{0},
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 2000})
	if !rep.OK() {
		t.Fatalf("leak flagged as refinement violation (should not be):\n%s", rep.Counterexample.Format())
	}

	// Direct run demonstrating the leak via the FD counter.
	m := machine.New(machine.Options{})
	fs := gfs.NewModel(m, Dirs(Config{Users: 1, RandBound: 4}))
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		mb := Init(mt, nil, fs, Config{Users: 1, RandBound: 4})
		mb.Deliver(mt, nil, 0, []byte("mail"))
		VariantPickupLeaky.Pickup(mb, mt, 0)
		mb.Unlock(mt, nil, 0)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if fs.OpenFDs() != 1 {
		t.Fatalf("expected exactly one leaked fd, got %d", fs.OpenFDs())
	}
}

func TestBenignForgetSpoolDeleteAccepted(t *testing.T) {
	// Leftover spool files violate nothing: the spec does not mandate
	// cleanup (§8.2), and the next Recover frees the space.
	s := Scenario("mb-forget-spool", VariantForgetSpoolDelete, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 3},
		Delivers:    []OpDeliver{{User: 0, Msg: "mail"}},
		MaxCrashes:  1,
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	if !rep.OK() {
		t.Fatalf("benign spool leak rejected:\n%s", rep.Counterexample.Format())
	}
}

func TestRecoverCleansSpool(t *testing.T) {
	m := machine.New(machine.Options{})
	c := Config{Users: 1, RandBound: 4}
	fs := gfs.NewModel(m, Dirs(c))
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		mb := Init(mt, nil, fs, c)
		VariantForgetSpoolDelete.Deliver(mb, mt, 0, []byte("mail"))
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if len(fs.PeekDir(SpoolDir)) == 0 {
		t.Fatal("expected a leftover spool file")
	}
	m.CrashReset()
	res = m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		Recover(mt, nil, fs, c, nil)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("recover: %+v", res)
	}
	if n := len(fs.PeekDir(SpoolDir)); n != 0 {
		t.Fatalf("spool not cleaned: %d files", n)
	}
	if n := len(fs.PeekDir(UserDir(0))); n != 1 {
		t.Fatalf("mailbox damaged by recovery: %d files", n)
	}
}

// TestOSBackendEndToEnd runs the same library on the real file system.
func TestOSBackendEndToEnd(t *testing.T) {
	c := Config{Users: 2, RandBound: 1 << 20}
	osfs, err := gfs.NewOS(t.TempDir(), Dirs(c))
	if err != nil {
		t.Fatal(err)
	}
	defer osfs.CloseAll()
	th := gfs.NewNative(1)

	mb := Init(th, nil, osfs, c)
	mb.Deliver(th, nil, 0, []byte("hello user0"))
	mb.Deliver(th, nil, 0, []byte(strings.Repeat("big", 2000))) // multi-chunk
	mb.Deliver(th, nil, 1, []byte("hello user1"))

	msgs := mb.Pickup(th, nil, 0)
	if len(msgs) != 2 {
		t.Fatalf("user0 has %d messages", len(msgs))
	}
	var sawBig bool
	for _, msg := range msgs {
		if msg.Contents == strings.Repeat("big", 2000) {
			sawBig = true
		}
	}
	if !sawBig {
		t.Fatal("multi-chunk message corrupted")
	}
	mb.Delete(th, nil, 0, msgs[0].ID)
	mb.Unlock(th, nil, 0)

	msgs = mb.Pickup(th, nil, 0)
	if len(msgs) != 1 {
		t.Fatalf("after delete, user0 has %d messages", len(msgs))
	}
	mb.Unlock(th, nil, 0)

	// "Crash" (new process): recovery cleans the spool and reopens.
	mb = Recover(th, nil, osfs, c, nil)
	msgs = mb.Pickup(th, nil, 1)
	if len(msgs) != 1 || msgs[0].Contents != "hello user1" {
		t.Fatalf("user1 mailbox after recovery: %+v", msgs)
	}
	mb.Unlock(th, nil, 1)
}

func TestUBClientDeleteUnlistedIsVacuouslyAccepted(t *testing.T) {
	// §8.3 "Exploiting undefined behavior": a client that deletes an ID
	// it never picked up is outside the spec, so the checker accepts
	// any behaviour (vacuous truth) rather than reporting a bug.
	c := Config{Users: 1, RandBound: 3}
	sp := Spec(c)
	s := Scenario("mb-ub-client", VariantVerified, ScenarioOptions{
		Config: c,
	})
	// Replace Main with a UB client: delete without pickup.
	s.Main = func(mt *machine.T, wAny any, h *explore.Harness) {
		w := wAny.(*World)
		mt.Go(func(ct *machine.T) {
			op := OpDelete{User: 0, ID: "msg0"}
			h.Op(op, func() spec.Ret {
				// Bypass the verified Delete (whose ghost lower-bound
				// check would flag the misuse before the spec does) and
				// hit the file system directly, like a raw client.
				w.FS[0].Delete(ct, UserDir(0), "msg0")
				return nil
			})
		})
	}
	s.Invariant = nil // the ghost AbsR does not cover UB clients
	rep := explore.Run(s, explore.Options{MaxExecutions: 1000})
	if !rep.OK() {
		t.Fatalf("UB client not vacuously accepted:\n%s", rep.Counterexample.Format())
	}
	_ = sp
}

func TestVerifiedImplementationLeaksNoFDs(t *testing.T) {
	// The Iron-style invariant (open descriptors == 0 at era
	// boundaries) holds for the verified implementation across a full
	// deliver/pickup/delete/unlock cycle.
	m := machine.New(machine.Options{})
	c := Config{Users: 1, RandBound: 4}
	fs := gfs.NewModel(m, Dirs(c))
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		mb := Init(mt, nil, fs, c)
		mb.Deliver(mt, nil, 0, []byte("mail"))
		msgs := mb.Pickup(mt, nil, 0)
		if len(msgs) != 1 {
			mt.Failf("pickup: %d", len(msgs))
		}
		mb.Delete(mt, nil, 0, msgs[0].ID)
		mb.Unlock(mt, nil, 0)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if n := fs.OpenFDs(); n != 0 {
		t.Fatalf("verified implementation leaked %d fds", n)
	}
}
