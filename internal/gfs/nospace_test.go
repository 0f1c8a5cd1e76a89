package gfs

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// TestNoSpaceNowAndFreeSpace pins the disk-full latch semantics on the
// operational surface: NoSpaceNow latches immediately regardless of
// policy, space-consuming writes (Create, Append, Link) fail without
// reaching the inner backend, reads/opens/listings keep working, and a
// successful Delete — freeing space — clears the latch.
func TestNoSpaceNowAndFreeSpace(t *testing.T) {
	o := newOSFS(t, faultScriptDirs)
	f := NewFaulty(o, fault.Never{})
	th := NewNative(1)

	fd, ok := f.Create(th, "spool", "a")
	if !ok {
		t.Fatal("create failed before the fill switch")
	}
	if !f.Append(th, fd, []byte("payload")) {
		t.Fatal("append failed before the fill switch")
	}
	f.Close(th, fd)

	f.NoSpaceNow("drill")
	f.NoSpaceNow("drill again")
	if !f.NoSpace() {
		t.Fatal("fill switch did not latch")
	}
	if _, ok := f.Create(th, "spool", "b"); ok {
		t.Fatal("create succeeded on a full disk")
	}
	if f.Link(th, "spool", "a", "box", "a") {
		t.Fatal("link succeeded on a full disk")
	}
	// Reads and listings still work: the disk is full, not dead.
	rfd, ok := f.Open(th, "spool", "a")
	if !ok {
		t.Fatal("open failed on a full disk")
	}
	if got := string(f.ReadAt(th, rfd, 0, 64)); got != "payload" {
		t.Fatalf("read on a full disk returned %q", got)
	}
	if f.Append(th, rfd, []byte("x")) {
		t.Fatal("append succeeded on a full disk")
	}
	f.Close(th, rfd)
	if names := f.List(th, "spool"); len(names) != 1 {
		t.Fatalf("list on a full disk: %v", names)
	}

	// Idempotent switch: one log event no matter how many failed writes.
	_, faults := f.Counters()
	if faults[fault.NoSpace] != 1 {
		t.Fatalf("idempotent fill switch recorded %d faults, want 1", faults[fault.NoSpace])
	}
	var events int
	for _, e := range f.Log() {
		if e.Class == fault.NoSpace {
			events++
		}
	}
	if events != 1 {
		t.Fatalf("%d no-space log events, want exactly 1", events)
	}

	// Deleting frees space and clears the latch.
	if !f.Delete(th, "spool", "a") {
		t.Fatal("delete failed on a full disk (deletes must always be allowed)")
	}
	if f.NoSpace() {
		t.Fatal("latch survived a successful delete")
	}
	if fd, ok := f.Create(th, "spool", "c"); !ok {
		t.Fatal("create failed after space was freed")
	} else {
		f.Close(th, fd)
	}

	// FreeSpace is the no-delete unlatch (operator freed space elsewhere).
	f.NoSpaceNow("again")
	f.FreeSpace()
	if f.NoSpace() {
		t.Fatal("latch survived FreeSpace")
	}
}

// TestChooserPolicyNoSpaceOptIn: with a nil Eligible set the chooser
// policy must never branch on disk-full (or fd exhaustion), even when
// the chooser takes every branch offered; with fault.NoSpace explicitly
// eligible, the "nospace" tag branches and injection latches the layer.
func TestChooserPolicyNoSpaceOptIn(t *testing.T) {
	greedy := machine.ChooserFunc(func(n int, tag string) int { return n - 1 })

	mm := machine.New(machine.Options{MaxSteps: 100000})
	fs := NewModel(mm, faultScriptDirs)
	f := NewFaulty(fs, &fault.Chooser{Budget: 1 << 30})
	res := mm.RunEra(greedy, false, func(mt *machine.T) { faultScript(f, mt) })
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	_, faults := f.Counters()
	if faults[fault.NoSpace] != 0 || faults[fault.NoFiles] != 0 {
		t.Fatalf("nil Eligible enumerated opt-in classes: nospace=%d nofiles=%d",
			faults[fault.NoSpace], faults[fault.NoFiles])
	}

	var sawTag bool
	tagSpy := machine.ChooserFunc(func(n int, tag string) int {
		if tag == "nospace" {
			sawTag = true
			return 1
		}
		return 0
	})
	mm2 := machine.New(machine.Options{MaxSteps: 100000})
	fs2 := NewModel(mm2, faultScriptDirs)
	f2 := NewFaulty(fs2, &fault.Chooser{
		Budget:   1 << 30,
		Eligible: map[fault.Class]bool{fault.NoSpace: true},
	})
	res = mm2.RunEra(tagSpy, false, func(mt *machine.T) {
		if _, ok := f2.Create(mt, "spool", "a"); ok {
			mt.Failf("create succeeded at the point the disk fills")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if !sawTag {
		t.Fatal("no nospace-tagged choice reached the chooser")
	}
	if !f2.NoSpace() {
		t.Fatal("injection did not latch")
	}
}

// TestDurableLatchNoBudgetDoubleCount is the budget-accounting audit
// for durable classes: once a latch (no-space or fail-stop) is set, the
// operations it fails must neither allocate new decision points nor
// consult the policy — so a full disk that stays full across a reboot
// (the fresh layer latched again, as a checked recovery boots it) is
// not double-counted against the chooser budget, and the fault.Chooser's
// durable encoding (AppendDurable) stays stable across any number of latched
// operations and eras.
func TestDurableLatchNoBudgetDoubleCount(t *testing.T) {
	var nospaceAsks int
	chooser := machine.ChooserFunc(func(n int, tag string) int {
		if tag == "nospace" {
			nospaceAsks++
			return 1
		}
		return 0
	})
	mm := machine.New(machine.Options{MaxSteps: 100000})
	fs := NewModel(mm, faultScriptDirs)
	pol := &fault.Chooser{Budget: 1, Eligible: map[fault.Class]bool{fault.NoSpace: true}}
	f := NewFaulty(fs, pol)

	latchedWrites := func(mt *machine.T, f *Faulty) {
		for _, name := range []string{"p", "q", "r"} {
			if _, ok := f.Create(mt, "spool", name); ok {
				mt.Failf("create %s succeeded while latched", name)
			}
		}
		if f.Link(mt, "spool", "seed", "box", "seed") {
			mt.Failf("link succeeded while latched")
		}
	}

	res := mm.RunEra(chooser, false, func(mt *machine.T) {
		// Real state through the inner backend, then the injection point.
		fd, _ := fs.Create(mt, "spool", "seed")
		fs.Close(mt, fd)
		if _, ok := f.Create(mt, "spool", "a"); ok {
			mt.Failf("create succeeded at the point the disk fills")
		}
		latchedWrites(mt, f)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era 1: %+v", res)
	}
	if nospaceAsks != 1 {
		t.Fatalf("policy consulted %d times, want exactly 1 (latched writes must not re-ask)", nospaceAsks)
	}
	calls, faults := f.Counters()
	if calls[fault.NoSpace] != 1 || faults[fault.NoSpace] != 1 {
		t.Fatalf("decision points=%d faults=%d, want 1/1", calls[fault.NoSpace], faults[fault.NoSpace])
	}
	fp := pol.AppendDurable(nil)

	// Crash and reboot: a fresh layer over the same disk and policy, as a
	// checked recovery era boots one. The disk is still full, so the
	// fresh layer is latched again; replayed writes against the latch
	// must not charge the (already spent) budget again.
	mm.CrashReset()
	g := NewFaulty(fs, pol)
	g.NoSpaceNow("still full at boot")
	res = mm.RunEra(chooser, false, func(mt *machine.T) { latchedWrites(mt, g) })
	if res.Outcome != machine.Done {
		t.Fatalf("era 2: %+v", res)
	}
	if nospaceAsks != 1 {
		t.Fatalf("post-crash writes re-consulted the policy (%d asks total)", nospaceAsks)
	}
	if calls, _ = g.Counters(); calls[fault.NoSpace] != 0 {
		t.Fatalf("post-crash: %d no-space decision points on a latched disk, want 0", calls[fault.NoSpace])
	}
	if got := pol.AppendDurable(nil); !reflect.DeepEqual(got, fp) {
		t.Fatalf("policy fingerprint drifted across latched eras: %v vs %v", got, fp)
	}

	// Same audit for the other durable latch: fail-stopped operations
	// allocate no fail-stop decision points either.
	f2 := NewFaulty(newOSFS(t, faultScriptDirs), fault.Never{})
	f2.FailStopNow("audit")
	th := NewNative(1)
	f2.Create(th, "spool", "x")
	f2.List(th, "spool")
	f2.Delete(th, "spool", "x")
	calls2, _ := f2.Counters()
	if calls2[fault.FailStop] != 0 {
		t.Fatalf("dead operations allocated %d fail-stop decision points, want 0", calls2[fault.FailStop])
	}
}

// TestNoFilesTransient pins the fd-exhaustion class: Open and Create
// fail transiently (nothing durable happens, nothing latches), while
// the other classes are untouched.
func TestNoFilesTransient(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 10000})
	fs := NewModel(mm, []string{"d"})
	f := NewFaulty(fs, fault.Always{Ops: map[fault.Class]bool{fault.NoFiles: true}})
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if _, ok := f.Create(mt, "d", "x"); ok {
			mt.Failf("create succeeded with the fd table full")
		}
		if len(fs.PeekDir("d")) != 0 {
			mt.Failf("faulted create left an entry behind")
		}
		fd, _ := fs.Create(mt, "d", "x")
		fs.Append(mt, fd, []byte("abcd"))
		fs.Close(mt, fd)
		if _, ok := f.Open(mt, "d", "x"); ok {
			mt.Failf("open succeeded with the fd table full")
		}
		// No latch: the class is transient, and non-fd classes still work.
		if f.NoSpace() || f.FailStopped() {
			mt.Failf("transient fd exhaustion latched something")
		}
		if !f.Link(mt, "d", "x", "d", "y") {
			mt.Failf("link failed under fd exhaustion")
		}
		if !f.Delete(mt, "d", "y") {
			mt.Failf("delete failed under fd exhaustion")
		}
		if names := f.List(mt, "d"); len(names) != 1 {
			mt.Failf("list under fd exhaustion: %v", names)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	calls, faults := f.Counters()
	if calls[fault.NoFiles] == 0 || faults[fault.NoFiles] != calls[fault.NoFiles] {
		t.Fatalf("no-files: calls=%d faults=%d, want all faulted", calls[fault.NoFiles], faults[fault.NoFiles])
	}
}

// TestSeededNoSpaceReproducible extends seeded-replay parity to the
// disk-full class: with fault.NoSpace in the rate table the same seed
// reproduces the same fill point — and the same post-fill schedule,
// including the delete that clears the latch — bit-for-bit.
func TestSeededNoSpaceReproducible(t *testing.T) {
	run := func(seed int64) ([]fault.Event, [fault.NumClasses]uint64, [fault.NumClasses]uint64) {
		o := newOSFS(t, faultScriptDirs)
		rates := UniformRates(3)
		rates[fault.NoSpace] = 10
		f := NewFaulty(o, &SeededPolicy{Seed: seed, Rates: rates})
		faultScript(f, NewNative(1))
		calls, faults := f.Counters()
		return f.Log(), calls, faults
	}

	var filled bool
	for seed := int64(1); seed <= 32 && !filled; seed++ {
		log1, calls1, faults1 := run(seed)
		log2, calls2, faults2 := run(seed)
		if !reflect.DeepEqual(log1, log2) || calls1 != calls2 || faults1 != faults2 {
			t.Fatalf("seed %d: schedules diverge:\n%v\nvs\n%v", seed, log1, log2)
		}
		filled = faults1[fault.NoSpace] > 0
	}
	if !filled {
		t.Fatal("no seed in 1..32 filled the disk at rate 1-in-10; rate table is dead")
	}
}

// TestModelCapacityAccounting pins the space-accounting model: entries
// cost SpaceEntryCost, contents cost their bytes (counted once per
// inode regardless of hard links), over-capacity writes fail
// ENOSPC-style without model faults, and Delete credits space back.
func TestModelCapacityAccounting(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 10000})
	fs := NewModel(mm, []string{"spool", "box"})
	fs.SetCapacity(2*SpaceEntryCost + 8)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		fd, ok := fs.Create(mt, "spool", "a")
		if !ok {
			mt.Failf("create under capacity failed")
		}
		if !fs.Append(mt, fd, []byte("12345678")) {
			mt.Failf("append under capacity failed")
		}
		// Full to the byte: entry(16) + 8 bytes + link entry(16) = 40.
		if !fs.Link(mt, "spool", "a", "box", "a") {
			mt.Failf("link under capacity failed")
		}
		if got := fs.SpaceUsed(); got != 2*SpaceEntryCost+8 {
			mt.Failf("SpaceUsed=%d, want %d (hard-linked bytes must count once)", got, 2*SpaceEntryCost+8)
		}
		// One more byte or entry does not fit.
		if fs.Append(mt, fd, []byte("x")) {
			mt.Failf("append over capacity succeeded")
		}
		if _, ok := fs.Create(mt, "spool", "b"); ok {
			mt.Failf("create over capacity succeeded")
		}
		fs.Close(mt, fd)

		// Deleting one link frees its entry cost; the bytes stay charged
		// while the other link lives.
		if !fs.Delete(mt, "spool", "a") {
			mt.Failf("delete failed")
		}
		if got := fs.SpaceUsed(); got != SpaceEntryCost+8 {
			mt.Failf("SpaceUsed=%d after delete, want %d", got, SpaceEntryCost+8)
		}
		if fd2, ok := fs.Create(mt, "spool", "c"); !ok {
			mt.Failf("create failed after space was freed")
		} else {
			fs.Close(mt, fd2)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}
