package gfs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// writeSealed writes one sealed file through sys and reports success.
func writeSealed(sys System, th T, dir, name string, data []byte) bool {
	fd, ok := sys.Create(th, dir, name)
	if !ok {
		return false
	}
	for off := 0; off < len(data); off += MaxAppend {
		end := off + MaxAppend
		if end > len(data) {
			end = len(data)
		}
		if !sys.Append(th, fd, data[off:end]) {
			sys.Close(th, fd)
			return false
		}
	}
	if !sys.Sync(th, fd) {
		sys.Close(th, fd)
		return false
	}
	sys.Close(th, fd)
	return true
}

// readSealed opens and fully reads one file through sys.
func readSealed(sys System, th T, dir, name string) ([]byte, bool) {
	data, _, whole := readAll(th, sys, dir, name)
	return data, whole
}

// TestChecksummedRoundTrip: the envelope is invisible to well-behaved
// callers — writes round-trip bit-for-bit, Size reports the plaintext
// length, multi-frame appends and empty files work, and a Link'd file
// still verifies under its new name (the envelope binds the birth
// path, which hard links share).
func TestChecksummedRoundTrip(t *testing.T) {
	o := newOSFS(t, []string{"spool", "box"})
	c := NewChecksummed(o, []string{"spool", "box"})
	th := NewNative(1)

	big := bytes.Repeat([]byte("0123456789abcdef"), 300) // 4800 B: spans appends and frames
	payload := append([]byte("hello "), big...)
	if !writeSealed(c, th, "spool", "a", payload) {
		t.Fatal("write failed")
	}
	if !c.Link(th, "spool", "a", "box", "b") {
		t.Fatal("link failed")
	}
	got, ok := readSealed(c, th, "box", "b")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v len=%d want %d", ok, len(got), len(payload))
	}

	// Empty file: Create then Close seals a zero-byte plaintext.
	fd, ok := c.Create(th, "box", "empty")
	if !ok {
		t.Fatal("create empty failed")
	}
	c.Close(th, fd)
	rfd, ok := c.Open(th, "box", "empty")
	if !ok {
		t.Fatal("empty file did not open")
	}
	if n := c.Size(th, rfd); n != 0 {
		t.Fatalf("empty file size %d", n)
	}
	c.Close(th, rfd)

	if errs := c.VerifyAll(th); len(errs) != 0 {
		t.Fatalf("VerifyAll on clean store: %v", errs)
	}
	if n := c.Detected(); n != 0 {
		t.Fatalf("clean store detected %d failures", n)
	}
	// Appending after the seal must fail: the envelope is closed.
	fd2, _ := c.Create(th, "box", "sealed")
	c.Sync(th, fd2)
	if c.Append(th, fd2, []byte("late")) {
		t.Fatal("append after seal succeeded")
	}
	c.Close(th, fd2)
}

// TestChecksummedDetectsRot: both corruption modes fail the open
// loudly, tick the detection counter, verdict as corrupt, and surface
// through VerifyAll/Scrub; TrustReads (the seeded bug) serves the
// rotten bytes without complaint.
func TestChecksummedDetectsRot(t *testing.T) {
	o := newOSFS(t, []string{"box"})
	c := NewChecksummed(o, []string{"box"})
	th := NewNative(1)

	files := map[string]CorruptMode{"flip": CorruptFlip, "trunc": CorruptTruncate}
	for name, mode := range files {
		if !writeSealed(c, th, "box", name, []byte("precious payload "+name)) {
			t.Fatalf("write %s failed", name)
		}
		if !o.CorruptFile(th, "box", name, mode) {
			t.Fatalf("corrupt %s failed", name)
		}
		if _, ok := c.Open(th, "box", name); ok {
			t.Fatalf("%s: open served rotten bytes", name)
		}
		if v := c.VerifyFile(th, "box", name); v != VerdictCorrupt {
			t.Fatalf("%s: verdict %v, want corrupt", name, v)
		}
	}
	if n := c.Detected(); n == 0 {
		t.Fatal("no detections recorded")
	}

	errs := c.VerifyAll(th)
	if len(errs) != 2 {
		t.Fatalf("VerifyAll found %d bad files, want 2: %v", len(errs), errs)
	}
	if !errors.Is(errs[0], ErrIntegrity) {
		t.Fatalf("IntegrityError does not wrap ErrIntegrity: %v", errs[0])
	}
	rep := c.Scrub(th, true) // single store: heal is a no-op, detect only
	if rep.Corrupt != 2 || len(rep.Bad) != 2 || rep.Clean() {
		t.Fatalf("scrub report: %v", rep)
	}
	if !strings.Contains(rep.String(), "corrupt=2") {
		t.Fatalf("report string: %q", rep.String())
	}

	// The seeded bug: trusting reads serve whatever is on disk.
	c.TrustReads = true
	if _, ok := c.Open(th, "box", "flip"); !ok {
		t.Fatal("TrustReads still refused the rotten file")
	}
}

// TestChecksummedUnsealedIsNotRot: a file mid-write (no seal yet) does
// not open, verdicts as unsealed, and is NOT counted as a detection —
// crash-abandoned writes are normal, not corruption. An empty file (a
// create torn back to zero bytes by a crash) is the degenerate case.
func TestChecksummedUnsealedIsNotRot(t *testing.T) {
	o := newOSFS(t, []string{"box"})
	c := NewChecksummed(o, []string{"box"})
	th := NewNative(1)

	fd, ok := c.Create(th, "box", "wip")
	if !ok {
		t.Fatal("create failed")
	}
	c.Append(th, fd, []byte("partial"))
	// Not sealed: verify and open from a second handle while mid-write.
	if v := c.VerifyFile(th, "box", "wip"); v != VerdictUnsealed {
		t.Fatalf("mid-write verdict %v, want unsealed", v)
	}
	if _, ok := c.Open(th, "box", "wip"); ok {
		t.Fatal("unsealed file opened")
	}

	// Zero-byte file, as a torn create leaves behind.
	r, release := o.root("box")
	if f, err := r.Create("torn"); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	release()
	if v := c.VerifyFile(th, "box", "torn"); v != VerdictUnsealed {
		t.Fatalf("empty-file verdict %v, want unsealed", v)
	}
	if n := c.Detected(); n != 0 {
		t.Fatalf("unsealed files counted as %d detections", n)
	}
	c.Close(th, fd)
}

// TestSeededCorruptReproducible extends seeded-replay parity to the
// silent-corruption class: with FaultCorrupt in the rate table the same
// seed must reproduce the same corruption schedule — which files rot,
// in which mode, at which call — bit-for-bit across runs.
func TestSeededCorruptReproducible(t *testing.T) {
	run := func(seed int64) ([]FaultEvent, [NumFaultOps]uint64, [NumFaultOps]uint64) {
		o := newOSFS(t, faultScriptDirs)
		var rates [NumFaultOps]uint64
		rates[FaultCorrupt] = 3
		f := NewFaulty(o, &SeededPolicy{Seed: seed, Rates: rates})
		faultScript(f, NewNative(1))
		calls, faults := f.Counters()
		return f.Log(), calls, faults
	}

	var rotted bool
	for seed := int64(1); seed <= 32 && !rotted; seed++ {
		log1, calls1, faults1 := run(seed)
		log2, calls2, faults2 := run(seed)
		if !reflect.DeepEqual(log1, log2) || calls1 != calls2 || faults1 != faults2 {
			t.Fatalf("seed %d: corruption schedules diverge:\n%v\nvs\n%v", seed, log1, log2)
		}
		rotted = faults1[FaultCorrupt] > 0
	}
	if !rotted {
		t.Fatal("no seed in 1..32 injected corruption at rate 1-in-3; class is dead")
	}
}

// TestCorruptionIsSilent: an injected corruption mutates the stored
// bytes but fails nothing — the triggering open succeeds and serves the
// (rotten) data, which is exactly why the class is only safe to enable
// under an integrity layer.
func TestCorruptionIsSilent(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 10000})
	fs := NewModel(mm, []string{"d"})
	pol := AlwaysPolicy{Ops: map[FaultOp]bool{FaultCorrupt: true}}
	f := NewFaulty(fs, pol)
	flipMode := machine.ChooserFunc(func(n int, tag string) int { return 0 })
	res := mm.RunEra(flipMode, false, func(mt *machine.T) {
		fd, _ := fs.Create(mt, "d", "x")
		fs.Append(mt, fd, []byte("abcd"))
		fs.Close(mt, fd)

		rfd, ok := f.Open(mt, "d", "x")
		if !ok {
			mt.Failf("corrupting open failed; corruption must be silent")
		}
		got := f.ReadAt(mt, rfd, 0, 64)
		if string(got) == "abcd" {
			mt.Failf("bytes unchanged after injected corruption")
		}
		if len(got) != 4 {
			mt.Failf("bit-flip changed the length: %q", got)
		}
		f.Close(mt, rfd)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	_, faults := f.Counters()
	if faults[FaultCorrupt] == 0 {
		t.Fatal("no corruption recorded")
	}
	var logged bool
	for _, e := range f.Log() {
		if e.Op == FaultCorrupt && strings.Contains(e.Detail, "bit-flip") {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("corruption event missing from log: %v", f.Log())
	}
}

// TestChooserPolicyCorruptOptIn mirrors the fail-stop opt-in test for
// the silent class: nil Eligible must never branch on corruption even
// under a chooser that takes every branch offered; with FaultCorrupt
// explicitly eligible the "corrupt" tag branches, the "corrupt-mode"
// tag picks the mangling, and the PerClass cap bounds the rot.
func TestChooserPolicyCorruptOptIn(t *testing.T) {
	greedy := machine.ChooserFunc(func(n int, tag string) int { return n - 1 })

	mm := machine.New(machine.Options{MaxSteps: 100000})
	fs := NewModel(mm, faultScriptDirs)
	f := NewFaulty(fs, &ChooserPolicy{Budget: 1 << 30})
	res := mm.RunEra(greedy, false, func(mt *machine.T) { faultScript(f, mt) })
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	_, faults := f.Counters()
	if faults[FaultCorrupt] != 0 {
		t.Fatal("nil Eligible enumerated silent corruption")
	}

	var sawCorrupt, sawMode bool
	tagSpy := machine.ChooserFunc(func(n int, tag string) int {
		switch tag {
		case "corrupt":
			sawCorrupt = true
			return 1
		case "corrupt-mode":
			sawMode = true
			if n != int(NumCorruptModes) {
				t.Errorf("corrupt-mode offered %d options, want %d", n, NumCorruptModes)
			}
			return int(CorruptTruncate)
		}
		return 0
	})
	mm2 := machine.New(machine.Options{MaxSteps: 100000})
	fs2 := NewModel(mm2, faultScriptDirs)
	f2 := NewFaulty(fs2, &ChooserPolicy{
		Budget:   1 << 30,
		Eligible: map[FaultOp]bool{FaultCorrupt: true},
		PerClass: map[FaultOp]int{FaultCorrupt: 1},
	})
	res = mm2.RunEra(tagSpy, false, func(mt *machine.T) { faultScript(f2, mt) })
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if !sawCorrupt || !sawMode {
		t.Fatalf("chooser tags missed: corrupt=%v mode=%v", sawCorrupt, sawMode)
	}
	_, faults2 := f2.Counters()
	if faults2[FaultCorrupt] != 1 {
		t.Fatalf("PerClass cap 1 but %d corruptions injected", faults2[FaultCorrupt])
	}
	var truncated bool
	for _, e := range f2.Log() {
		if e.Op == FaultCorrupt && strings.Contains(e.Detail, "truncate") {
			truncated = true
		}
	}
	if !truncated {
		t.Fatalf("chosen truncate mode not in log: %v", f2.Log())
	}
}

// newCheckedMirror builds Mirrored(Checksummed(Model), Checksummed(Model))
// over one data directory.
func newCheckedMirror(mm *machine.Machine) (*Mirrored, [2]*Model, [2]*Checksummed) {
	dirs := []string{"box"}
	all := []string{"box", MirrorMetaDir}
	var mods [2]*Model
	var chks [2]*Checksummed
	for i := range mods {
		mods[i] = NewModel(mm, all)
		chks[i] = NewChecksummed(mods[i], dirs)
	}
	return NewMirrored(chks[0], chks[1], dirs), mods, chks
}

// TestMirrorHealsRottenReadReplica: a checksum failure on the read
// replica fails over to the peer's verified copy AND rewrites the
// rotten copy in place — the read succeeds, the replicas end
// byte-identical, and the generation markers stay equal.
func TestMirrorHealsRottenReadReplica(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 100000})
	mir, mods, chks := newCheckedMirror(mm)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if !writeSealed(mir, mt, "box", "m", []byte("acked mail")) {
			mt.Failf("mirror write failed")
		}
		if !mods[0].CorruptFile(mt, "box", "m", CorruptFlip) {
			mt.Failf("corrupt failed")
		}
		if chks[0].VerifyFile(mt, "box", "m") != VerdictCorrupt {
			mt.Failf("replica 0 not rotten after corrupt")
		}

		got, ok := readSealed(mir, mt, "box", "m")
		if !ok || string(got) != "acked mail" {
			mt.Failf("read through rotten replica: ok=%v %q", ok, got)
		}
		if chks[0].VerifyFile(mt, "box", "m") != VerdictOK {
			mt.Failf("replica 0 not healed by the read")
		}
		if chks[0].Detected() == 0 {
			mt.Failf("no detection recorded")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	d0, d1 := mods[0].PeekDir("box"), mods[1].PeekDir("box")
	if !bytes.Equal(d0["m"], d1["m"]) {
		t.Fatal("replicas differ after heal")
	}
	g0 := len(mods[0].PeekDir(MirrorMetaDir))
	g1 := len(mods[1].PeekDir(MirrorMetaDir))
	if g0 != g1 || g0 == 0 {
		t.Fatalf("generations %d vs %d after heal, want equal and bumped", g0, g1)
	}
	if mir.Degraded() {
		t.Fatal("mirror degraded after a successful heal")
	}
}

// TestMirrorOpenFailsWhenBothRotten: with no good copy anywhere the
// open fails loudly instead of serving garbage.
func TestMirrorOpenFailsWhenBothRotten(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 100000})
	mir, mods, _ := newCheckedMirror(mm)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if !writeSealed(mir, mt, "box", "m", []byte("doomed")) {
			mt.Failf("mirror write failed")
		}
		mods[0].CorruptFile(mt, "box", "m", CorruptFlip)
		mods[1].CorruptFile(mt, "box", "m", CorruptTruncate)
		if _, ok := mir.Open(mt, "box", "m"); ok {
			mt.Failf("open served a file rotten on both replicas")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

// TestMirrorScrubDetectsAndHeals: a detect-only pass reports the rot
// without touching it; a healing pass rewrites it from the good peer
// and leaves the mirror clean.
func TestMirrorScrubDetectsAndHeals(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 200000})
	mir, mods, chks := newCheckedMirror(mm)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		for _, name := range []string{"a", "b"} {
			if !writeSealed(mir, mt, "box", name, []byte("msg-"+name)) {
				mt.Failf("write %s failed", name)
			}
		}
		// Rot replica 1's copy of b — off the read path, so only a scrub
		// will ever find it.
		mods[1].CorruptFile(mt, "box", "b", CorruptFlip)

		rep := mir.Scrub(mt, false)
		if rep.Corrupt != 1 || rep.Healed != 0 || len(rep.Bad) != 1 || rep.Bad[0] != "box/b" {
			mt.Failf("detect-only scrub: %v", rep)
		}
		if chks[1].VerifyFile(mt, "box", "b") != VerdictCorrupt {
			mt.Failf("detect-only scrub modified the store")
		}

		rep = mir.Scrub(mt, true)
		if rep.Corrupt != 1 || rep.Healed != 1 || !rep.Clean() {
			mt.Failf("healing scrub: %v", rep)
		}
		if chks[1].VerifyFile(mt, "box", "b") != VerdictOK {
			mt.Failf("scrub did not heal replica 1")
		}
		rep = mir.Scrub(mt, false)
		if rep.Corrupt != 0 || !rep.Clean() {
			mt.Failf("post-heal scrub still dirty: %v", rep)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if !bytes.Equal(mods[0].PeekDir("box")["b"], mods[1].PeekDir("box")["b"]) {
		t.Fatal("replicas differ after scrub heal")
	}
}

// TestResilverVerifiesSource: a resilver whose source copy is rotten
// must not clobber the good destination copy — it heals the source in
// reverse from the destination first, then completes. With the
// ResilverNoVerify bug flag the rot is replicated instead.
func TestResilverVerifiesSource(t *testing.T) {
	setup := func(noVerify bool) (*Mirrored, [2]*Checksummed, uint64, bool, *machine.Machine) {
		mm := machine.New(machine.Options{MaxSteps: 200000})
		mir, mods, chks := newCheckedMirror(mm)
		mir.ResilverNoVerify = noVerify
		var n uint64
		var ok bool
		res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			if !writeSealed(mir, mt, "box", "m", []byte("survivor data")) {
				mt.Failf("write failed")
			}
			// Replica 1 is declared replaced (stale), making replica 0 the
			// resilver source — and replica 0's copy is rotten.
			mir.ReplaceReplica(1)
			mods[0].CorruptFile(mt, "box", "m", CorruptFlip)
			_, n, ok = mir.Resilver(mt)
		})
		if res.Outcome != machine.Done {
			t.Fatalf("res=%+v", res)
		}
		return mir, chks, n, ok, mm
	}

	// Fixed behavior: reverse heal, then a clean resilver.
	mir, chks, _, ok, mm := setup(false)
	if !ok {
		t.Fatal("resilver failed despite a healable source")
	}
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if chks[0].VerifyFile(mt, "box", "m") != VerdictOK {
			mt.Failf("source not reverse-healed")
		}
		if chks[1].VerifyFile(mt, "box", "m") != VerdictOK {
			mt.Failf("destination rotten after verified resilver")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if mir.Degraded() {
		t.Fatal("mirror degraded after verified resilver")
	}

	// Seeded bug: the trusting resilver replicates the rot everywhere.
	_, chks, _, ok, mm = setup(true)
	if !ok {
		t.Fatal("buggy resilver was expected to (wrongly) report success")
	}
	res = mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if chks[1].VerifyFile(mt, "box", "m") != VerdictCorrupt {
			mt.Failf("bug flag set but good copy survived")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

// lyingAppend wraps a System and silently drops every Append while
// reporting success — a device that lies about its writes. Persistent
// lying matters: Resilver retries the data pass once after a failed
// verification (to absorb rot injected by the verify reads themselves),
// so a one-shot lie would be legitimately repaired by the retry.
type lyingAppend struct {
	System
}

func (l *lyingAppend) Append(t T, fd FD, data []byte) bool { return true }

// TestResilverVerifyCatchesShortCopy is the regression test for the
// silent-short-copy hole: a destination leg that drops an append while
// reporting success used to let Resilver equalize the generations over
// a silently short file. The post-copy verification pass must fail the
// resilver and leave the mirror degraded instead.
func TestResilverVerifyCatchesShortCopy(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 100000})
	dirs := []string{"box"}
	all := []string{"box", MirrorMetaDir}
	m0 := NewModel(mm, all)
	m1 := NewModel(mm, all)
	liar := &lyingAppend{System: m1}
	mir := NewMirrored(m0, liar, dirs)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		// Seed replica 0 directly; replica 1 starts empty and replaced.
		fd, _ := m0.Create(mt, "box", "m")
		m0.Append(mt, fd, []byte("must arrive whole"))
		m0.Sync(mt, fd)
		m0.Close(mt, fd)
		mir.ReplaceReplica(1)

		if _, _, ok := mir.Resilver(mt); ok {
			mt.Failf("resilver reported success over a lying destination")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if !mir.Degraded() {
		t.Fatal("mirror not degraded after a failed resilver")
	}
	if g0, g1 := len(m0.PeekDir(MirrorMetaDir)), len(m1.PeekDir(MirrorMetaDir)); g0 != g1 {
		// Generations may legitimately differ here; what must NOT happen
		// is equal generations over differing data.
		_ = g0
		_ = g1
	}
	if bytes.Equal(m0.PeekDir("box")["m"], m1.PeekDir("box")["m"]) {
		t.Fatal("test is vacuous: the lying append did not shorten the copy")
	}
}

// TestIntegrityMetricsNilSafe: every IntegrityMetrics method must
// tolerate a nil receiver, so checker runs and metric-less servers
// never trip over instrumentation.
func TestIntegrityMetricsNilSafe(t *testing.T) {
	var m *IntegrityMetrics
	m.detected()
	m.healed()
	m.ScrubDone(time.Second)
}

// TestIntegrityMetricsRegister: the three gfs_integrity_* families
// register and record.
func TestIntegrityMetricsRegister(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewIntegrityMetrics(reg)
	m.detected()
	m.healed()
	m.ScrubDone(10 * time.Millisecond)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"gfs_integrity_detected_total 1",
		"gfs_integrity_healed_total 1",
		"gfs_integrity_scrub_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
