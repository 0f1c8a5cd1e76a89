package gfs

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
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
	// off+n past the top of uint64 means "to the end", not a wrapped
	// (negative) length.
	rfd0, _ := c.Open(th, "box", "b")
	if rest := c.ReadAt(th, rfd0, 6, math.MaxUint64); !bytes.Equal(rest, big) {
		t.Fatalf("read to the end with a wrapping length: %d bytes, want %d", len(rest), len(big))
	}
	c.Close(th, rfd0)

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

	if rep := c.Scrub(th, false); rep.Checked != 3 || rep.Corrupt != 0 || rep.Unsealed != 0 || len(rep.Bad) != 0 {
		t.Fatalf("scrub of a clean store of three files: %v", rep)
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
// through Scrub; trustingReads (the seeded bug) serves the
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

	rep := c.Scrub(th, true) // single store: heal is a no-op, detect only
	if rep.Checked != 2 || rep.Corrupt != 2 || rep.Unsealed != 0 || rep.Clean() ||
		!slices.Equal(slices.Sorted(slices.Values(rep.Bad)), []string{"box/flip", "box/trunc"}) {
		t.Fatalf("scrub report: %v %q", rep, rep.Bad)
	}
	if !strings.Contains(rep.String(), "corrupt=2") {
		t.Fatalf("report string: %q", rep.String())
	}

	// The seeded bug: trusting reads serve whatever is on disk.
	if _, ok := (trustingReads{c}).Open(th, "box", "flip"); !ok {
		t.Fatal("trusting reads still refused the rotten file")
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
	if f, ok := o.Create(th, "box", "torn"); !ok {
		t.Fatal("bare create failed")
	} else {
		o.Close(th, f)
	}
	if v := c.VerifyFile(th, "box", "torn"); v != VerdictUnsealed {
		t.Fatalf("empty-file verdict %v, want unsealed", v)
	}
	if n := c.Detected(); n != 0 {
		t.Fatalf("unsealed files counted as %d detections", n)
	}
	c.Close(th, fd)
}

// TestSeededCorruptReproducible extends seeded-replay parity to the
// silent-corruption class: with fault.Corrupt in the rate table the same
// seed must reproduce the same corruption schedule — which files rot,
// in which mode, at which call — bit-for-bit across runs.
func TestSeededCorruptReproducible(t *testing.T) {
	run := func(seed int64) ([]fault.Event, [fault.NumClasses]uint64, [fault.NumClasses]uint64) {
		o := newOSFS(t, faultScriptDirs)
		var rates [fault.NumClasses]uint64
		rates[fault.Corrupt] = 3
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
		rotted = faults1[fault.Corrupt] > 0
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
	pol := fault.Always{Ops: map[fault.Class]bool{fault.Corrupt: true}}
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
	if faults[fault.Corrupt] == 0 {
		t.Fatal("no corruption recorded")
	}
	var logged bool
	for _, e := range f.Log() {
		if e.Class == fault.Corrupt && strings.Contains(e.Detail, "bit-flip") {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("corruption event missing from log: %v", f.Log())
	}
}

// TestChooserPolicyCorruptOptIn mirrors the fail-stop opt-in test for
// the silent class: nil Eligible must never branch on corruption even
// under a chooser that takes every branch offered; with fault.Corrupt
// explicitly eligible the "corrupt" tag branches, the "corrupt-mode"
// tag picks the mangling, and a budget of one bounds the rot.
func TestChooserPolicyCorruptOptIn(t *testing.T) {
	greedy := machine.ChooserFunc(func(n int, tag string) int { return n - 1 })

	mm := machine.New(machine.Options{MaxSteps: 100000})
	fs := NewModel(mm, faultScriptDirs)
	f := NewFaulty(fs, &fault.Chooser{Budget: 1 << 30})
	res := mm.RunEra(greedy, false, func(mt *machine.T) { faultScript(f, mt) })
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	_, faults := f.Counters()
	if faults[fault.Corrupt] != 0 {
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
	f2 := NewFaulty(fs2, &fault.Chooser{Budget: 1, Eligible: fault.Classes(fault.Corrupt)})
	res = mm2.RunEra(tagSpy, false, func(mt *machine.T) { faultScript(f2, mt) })
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if !sawCorrupt || !sawMode {
		t.Fatalf("chooser tags missed: corrupt=%v mode=%v", sawCorrupt, sawMode)
	}
	_, faults2 := f2.Counters()
	if faults2[fault.Corrupt] != 1 {
		t.Fatalf("budget 1 but %d corruptions injected", faults2[fault.Corrupt])
	}
	var truncated bool
	for _, e := range f2.Log() {
		if e.Class == fault.Corrupt && strings.Contains(e.Detail, "truncate") {
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
// no-verify-resilver bug (a forged judged) the rot is replicated instead.
func TestResilverVerifiesSource(t *testing.T) {
	setup := func(noVerify bool) (*Mirrored, [2]*Checksummed, uint64, bool, *machine.Machine) {
		mm := machine.New(machine.Options{MaxSteps: 200000})
		mir, mods, chks := newCheckedMirror(mm)
		var r Resilverer = mir
		if noVerify {
			r = unjudgedResilver{mir}
		}
		var n uint64
		var ok bool
		res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			if !writeSealed(mir, mt, "box", "m", []byte("survivor data")) {
				mt.Failf("write failed")
			}
			// The generations tie, so replica 0 is the resilver source —
			// and replica 0's copy is rotten.
			mods[0].CorruptFile(mt, "box", "m", CorruptFlip)
			_, n, ok = r.Resilver(mt)
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
			mt.Failf("bug seeded but good copy survived")
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
		// Seed replica 0 directly; replica 1 starts empty.
		fd, _ := m0.Create(mt, "box", "m")
		m0.Append(mt, fd, []byte("must arrive whole"))
		m0.Sync(mt, fd)
		m0.Close(mt, fd)

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

// TestIntegrityMetricsNilSafe: the zero IntegrityMetrics, which checker
// runs and metric-less servers carry, takes every write its call sites
// make, records nothing and reads no clock.
func TestIntegrityMetricsNilSafe(t *testing.T) {
	var m IntegrityMetrics
	m.Detected.Inc()
	m.Healed.Inc()
	start := m.ScrubSeconds.Start()
	m.ScrubSeconds.ObserveSince(start)
	if !start.IsZero() || m.Detected.Value() != 0 || m.Healed.Value() != 0 || m.ScrubSeconds.Count() != 0 {
		t.Fatalf("zero metrics recorded: start %v, detected %d, healed %d, scrubs %d",
			start, m.Detected.Value(), m.Healed.Value(), m.ScrubSeconds.Count())
	}
}

// TestIntegrityMetricsRegister: the three gfs_integrity_* families
// register and record.
func TestIntegrityMetricsRegister(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewIntegrityMetrics(reg)
	m.Detected.Inc()
	m.Healed.Inc()
	m.ScrubSeconds.ObserveDuration(10 * time.Millisecond)
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

// ---- The envelope oracle -------------------------------------------------
//
// referenceFNV, frameSum, sealSum, buildFrame and referenceDecodeVerify
// are the two-pass envelope code as it stood before the one-traversal
// rewrite, kept verbatim (decodeVerify and fnv64a renamed, since the
// names live on in checksummed.go) as the specification the production
// code is tested against: a frame sum and the seal sum each get their own
// pass over the bytes, and the plaintext is accumulated.

func referenceFNV(h uint64, chunks ...[]byte) uint64 {
	for _, c := range chunks {
		for _, b := range c {
			h ^= uint64(b)
			h *= fnvPrime64
		}
	}
	return h
}

func frameSum(path string, index uint64, kind byte, payload []byte) uint64 {
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], index)
	return referenceFNV(fnvOffset64, []byte(path), idx[:], []byte{kind}, payload)
}

func sealSum(path string, plaintext []byte) uint64 {
	return referenceFNV(fnvOffset64, []byte(path), plaintext)
}

func buildFrame(path string, index uint64, kind byte, payload []byte) []byte {
	f := make([]byte, frameOverhead+len(payload))
	f[0] = kind
	binary.BigEndian.PutUint32(f[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint64(f[5:13], frameSum(path, index, kind, payload))
	copy(f[frameOverhead:], payload)
	return f
}

func referenceDecodeVerify(raw []byte) ([]byte, Verdict) {
	if len(raw) == 0 {
		return nil, VerdictUnsealed
	}
	var plaintext []byte
	var index uint64
	var path string
	sealed := false
	for len(raw) > 0 {
		if sealed {
			return nil, VerdictCorrupt // trailing bytes after the seal
		}
		if len(raw) < frameOverhead {
			return nil, VerdictCorrupt // torn frame header
		}
		kind := raw[0]
		plen := binary.BigEndian.Uint32(raw[1:5])
		sum := binary.BigEndian.Uint64(raw[5:13])
		if uint64(len(raw)-frameOverhead) < uint64(plen) {
			return nil, VerdictCorrupt // torn payload
		}
		payload := raw[frameOverhead : frameOverhead+int(plen)]
		raw = raw[frameOverhead+int(plen):]
		if index == 0 {
			if kind != frameHeader {
				return nil, VerdictCorrupt // missing header
			}
			path = string(payload)
		} else if kind == frameHeader {
			return nil, VerdictCorrupt // duplicate header
		}
		if frameSum(path, index, kind, payload) != sum {
			return nil, VerdictCorrupt
		}
		switch kind {
		case frameHeader:
		case frameData:
			plaintext = append(plaintext, payload...)
		case frameSeal:
			if len(payload) != 16 {
				return nil, VerdictCorrupt
			}
			if binary.BigEndian.Uint64(payload[:8]) != uint64(len(plaintext)) {
				return nil, VerdictCorrupt
			}
			if binary.BigEndian.Uint64(payload[8:]) != sealSum(path, plaintext) {
				return nil, VerdictCorrupt
			}
			sealed = true
		default:
			return nil, VerdictCorrupt // unknown frame kind
		}
		index++
	}
	if !sealed {
		return nil, VerdictUnsealed
	}
	return plaintext, VerdictOK
}

// referenceFrames is the reference writer: the frames of the envelope
// the old Create / Append... / Sync sequence put on disk for appends
// born at path, one element per frame.
func referenceFrames(path string, appends [][]byte) [][]byte {
	frames := [][]byte{buildFrame(path, 0, frameHeader, []byte(path))}
	var plaintext []byte
	for _, data := range appends {
		for len(data) > 0 {
			n := min(len(data), maxFramePayload)
			frames = append(frames, buildFrame(path, uint64(len(frames)), frameData, data[:n]))
			plaintext = append(plaintext, data[:n]...)
			data = data[n:]
		}
	}
	return append(frames, buildFrame(path, uint64(len(frames)), frameSeal, referenceSeal(path, plaintext)))
}

// referenceSeal is the seal frame's payload: plaintext length, seal sum.
func referenceSeal(path string, plaintext []byte) []byte {
	payload := make([]byte, 16)
	binary.BigEndian.PutUint64(payload[:8], uint64(len(plaintext)))
	binary.BigEndian.PutUint64(payload[8:], sealSum(path, plaintext))
	return payload
}

// captureFS is the inner System the oracle writes through: it keeps the
// bytes of every file Checksummed puts on it, in memory, and serves
// them back whole.
type captureFS struct {
	System // the operations an envelope round trip never calls
	files  map[string][]byte
}

type captureFD struct{ path string }

func newCaptureFS() *captureFS { return &captureFS{files: map[string][]byte{}} }

func (c *captureFS) Create(_ T, dir, name string) (FD, bool) {
	c.files[dir+"/"+name] = []byte{}
	return &captureFD{dir + "/" + name}, true
}
func (c *captureFS) Open(_ T, dir, name string) (FD, bool) {
	_, ok := c.files[dir+"/"+name]
	return &captureFD{dir + "/" + name}, ok
}
func (c *captureFS) Append(_ T, fd FD, data []byte) bool {
	p := fd.(*captureFD).path
	c.files[p] = append(c.files[p], data...)
	return true
}
func (c *captureFS) Size(_ T, fd FD) uint64 { return uint64(len(c.files[fd.(*captureFD).path])) }
func (c *captureFS) ReadAt(_ T, fd FD, off, n uint64) []byte {
	data := c.files[fd.(*captureFD).path]
	if off >= uint64(len(data)) {
		return nil
	}
	return bytes.Clone(data[off:min(off+n, uint64(len(data)))])
}
func (c *captureFS) Sync(T, FD) bool { return true }
func (c *captureFS) Close(T, FD)     {}

// randomAppends cuts a random payload of total bytes into appends of at
// most MaxAppend, a good share of them longer than maxFramePayload (one
// append, two frames).
func randomAppends(rng *rand.Rand, total int) [][]byte {
	var out [][]byte
	for total > 0 {
		n := 1 + rng.Intn(MaxAppend)
		if rng.Intn(3) == 0 {
			n = maxFramePayload - 1 + rng.Intn(3) // around the frame boundary
		}
		n = min(n, total)
		b := make([]byte, n)
		rng.Read(b)
		out = append(out, b)
		total -= n
	}
	return out
}

// TestEnvelopeWriterMatchesReference is the byte-identity half of the
// oracle: over random payloads, append splits on both sides of
// maxFramePayload, and birth paths, the bytes the one-traversal writer
// puts on disk are the reference envelope's, and they read back whole.
func TestEnvelopeWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	th := NewNative(1)
	paths := [][2]string{{"spool", "a"}, {"box", "tmp-1234567890"}, {MirrorMetaDir, "g0"}, {"user9999", strings.Repeat("n", 200)}}
	sizes := []int{0, 1, 300, maxFramePayload - 1, maxFramePayload, maxFramePayload + 1, MaxAppend, 3 * MaxAppend}
	for i := 0; i < 200; i++ {
		total := rng.Intn(4 * MaxAppend)
		if i < len(sizes) {
			total = sizes[i]
		}
		dir, name := paths[i%len(paths)][0], paths[i%len(paths)][1]
		appends := randomAppends(rng, total)

		inner := newCaptureFS()
		c := NewChecksummed(inner, []string{dir})
		fd, _ := c.Create(th, dir, name)
		for _, a := range appends {
			if !c.Append(th, fd, a) {
				t.Fatalf("case %d: append failed", i)
			}
		}
		if got := c.Size(th, fd); got != uint64(total) {
			t.Fatalf("case %d: writer reports size %d after %d bytes", i, got, total)
		}
		if !c.Sync(th, fd) {
			t.Fatalf("case %d: sync failed", i)
		}
		c.Close(th, fd)

		want := bytes.Join(referenceFrames(dir+"/"+name, appends), nil)
		if got := inner.files[dir+"/"+name]; !bytes.Equal(got, want) {
			t.Fatalf("case %d (%s/%s, %d bytes in %d appends): envelope differs from the reference\n got %x\nwant %x", i, dir, name, total, len(appends), got, want)
		}
		got, whole := readSealed(c, th, dir, name)
		if !whole || !bytes.Equal(got, bytes.Join(appends, nil)) {
			t.Fatalf("case %d: read back %d bytes (whole=%v), wrote %d", i, len(got), whole, total)
		}
	}
}

// goldenEnvelope is the envelope of "hello, envelope" appended in one
// piece to a file born at box/golden, as the code before the
// one-traversal rewrite wrote it. A change to the on-disk format fails
// here by name.
const goldenEnvelope = "" +
	"000000000a46b0e30252547d51626f782f676f6c64656e" + // header: kind 0, length 10, sum, "box/golden"
	"010000000fc5f2bb01f513825468656c6c6f2c20656e76656c6f7065" + // data: kind 1, length 15, sum, the payload
	"02000000106902b8f1ac36145f000000000000000f931aedb27c3236a6" // seal: kind 2, length 16, sum, plaintext length 15, seal sum

func TestEnvelopeGolden(t *testing.T) {
	th := NewNative(1)
	inner := newCaptureFS()
	c := NewChecksummed(inner, []string{"box"})
	if !writeSealed(c, th, "box", "golden", []byte("hello, envelope")) {
		t.Fatal("write failed")
	}
	if got := hex.EncodeToString(inner.files["box/golden"]); got != goldenEnvelope {
		t.Fatalf("on-disk format drifted:\n got %s\nwant %s", got, goldenEnvelope)
	}
	raw, _ := hex.DecodeString(goldenEnvelope)
	if got, v := decodeVerify(raw, true); v != VerdictOK || string(got) != "hello, envelope" {
		t.Fatalf("golden envelope decodes to %q, verdict %v", got, v)
	}
}

// TestEnvelopeVerdictsMatchReference is the verdict half of the oracle:
// for every mutation class the envelope exists to catch, the
// one-traversal decoder — keeping the plaintext or only judging — rules
// exactly as the reference does, and a store serving those bytes opens
// or refuses, and counts a detection, exactly when the reference says.
func TestEnvelopeVerdictsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	small := referenceFrames("box/m", [][]byte{[]byte("acked mail, "), []byte("two frames")})
	big := referenceFrames("box/m", randomAppends(rng, 2*MaxAppend+100))
	other := referenceFrames("box/other", [][]byte{[]byte("acked mail, "), []byte("two frames")})
	join := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	sound := join(small...)

	type mutant struct {
		class string
		raw   []byte
	}
	muts := []mutant{
		{"sound", sound},
		{"sound multi-frame", join(big...)},
		{"zero-length file", nil},
		{"frames swapped", join(small[0], small[2], small[1], small[3])},
		{"frames swapped (big)", join(append([][]byte{big[0], big[2], big[1]}, big[3:]...)...)},
		{"frame spliced from another birth path", join(small[0], other[1], small[2], small[3])},
		{"whole envelope of another birth path", join(other...)}, // sound: a wholesale swap needs an outside authority
		{"trailing bytes after the seal", append(bytes.Clone(sound), 0)},
		{"trailing frame after the seal", join(small[0], small[1], small[2], small[3], small[1])},
		{"second seal", join(small[0], small[1], small[2], small[3], small[3])},
		{"trailing data frame dropped", join(small[0], small[1], small[3])},
		{"seal dropped", join(small[0], small[1], small[2])},
		{"header only", small[0]},
		{"header dropped", join(small[1:]...)},
		{"header repeated", join(small[0], small[0], small[1], small[2], small[3])},
	}
	// Forgeries: every frame sum is right and the frames agree with one
	// another, so only the one check named stands between each of these
	// and a decoder that would serve it.
	forge := func(path string, kinds []byte, payloads ...string) []byte {
		var out, plaintext []byte
		for i, kind := range kinds {
			payload := []byte(payloads[i])
			if kind == frameSeal && payloads[i] == "" {
				payload = referenceSeal(path, plaintext)
			}
			if kind == frameData {
				plaintext = append(plaintext, payload...)
			}
			out = append(out, buildFrame(path, uint64(i), kind, payload)...)
		}
		return out
	}
	sealOf := string(small[3][frameOverhead:])
	flip := func(p string, i int) string {
		b := []byte(p)
		b[i] ^= 1
		return string(b)
	}
	muts = append(muts,
		mutant{"forgery: the sound file, rebuilt", forge("box/m", []byte{0, 1, 1, 2}, "box/m", "acked mail, ", "two frames", "")},
		mutant{"forgery: wrong seal sum", forge("box/m", []byte{0, 1, 1, 2}, "box/m", "acked mail, ", "two frames", flip(sealOf, 15))},
		mutant{"forgery: wrong seal length", forge("box/m", []byte{0, 1, 1, 2}, "box/m", "acked mail, ", "two frames", flip(sealOf, 7))},
		mutant{"forgery: 15-byte seal", forge("box/m", []byte{0, 1, 1, 2}, "box/m", "acked mail, ", "two frames", sealOf[:15])},
		mutant{"forgery: frame of an unknown kind", forge("box/m", []byte{0, 1, 3, 2}, "box/m", "acked mail, ", "two frames", "")},
		mutant{"forgery: second header", forge("box/m", []byte{0, 0, 1, 2}, "box/m", "box/m", "acked mail, ", "")},
		mutant{"forgery: first frame is no header", forge("acked mail, ", []byte{1, 1, 2}, "acked mail, ", "two frames", "")},
		mutant{"forgery: data frame after the seal", forge("box/m", []byte{0, 1, 2, 1}, "box/m", "acked mail, ", "", "two frames")},
	)
	for off := range sound {
		for bit := 0; bit < 8; bit++ {
			m := bytes.Clone(sound)
			m[off] ^= 1 << bit
			muts = append(muts, mutant{fmt.Sprintf("bit %d of byte %d flipped", bit, off), m})
		}
		muts = append(muts, mutant{fmt.Sprintf("truncated to %d bytes", off), sound[:off]})
	}
	for i := 0; i < 200; i++ { // the big file is sampled, not swept
		m := bytes.Clone(join(big...))
		m[rng.Intn(len(m))] ^= 1 << rng.Intn(8)
		muts = append(muts, mutant{"random bit flipped (big)", m}, mutant{"random truncation (big)", m[:rng.Intn(len(m))]})
	}

	th := NewNative(1)
	inner := newCaptureFS()
	c := NewChecksummed(inner, []string{"box"})
	verdicts := map[Verdict]int{}
	for _, m := range muts {
		wantData, want := referenceDecodeVerify(m.raw)
		verdicts[want]++
		if got := VerifyEnvelope(m.raw); got != want {
			t.Fatalf("%s: VerifyEnvelope says %v, the reference %v", m.class, got, want)
		}
		if data, got := decodeVerify(m.raw, true); got != want || !bytes.Equal(data, wantData) {
			t.Fatalf("%s: decodeVerify says %v with %d bytes, the reference %v with %d", m.class, got, len(data), want, len(wantData))
		}

		inner.files["box/m"] = m.raw
		before := c.Detected()
		data, whole := readSealed(c, th, "box", "m")
		if whole != (want == VerdictOK) || !bytes.Equal(data, wantData) {
			t.Fatalf("%s: the store served %d bytes (whole=%v) of a file the reference rules %v", m.class, len(data), whole, want)
		}
		if got := c.VerifyFile(th, "box", "m"); got != want {
			t.Fatalf("%s: VerifyFile says %v, the reference %v", m.class, got, want)
		}
		// One detection per look at a corrupt file — the open and the
		// verify are two looks — and none for any other verdict.
		wantDetected := before
		if want == VerdictCorrupt {
			wantDetected += 2
		}
		if got := c.Detected(); got != wantDetected {
			t.Fatalf("%s (%v): Detected went %d -> %d, want %d", m.class, want, before, got, wantDetected)
		}
	}
	if verdicts[VerdictOK] != 4 || verdicts[VerdictUnsealed] < 4 || verdicts[VerdictCorrupt] < 1000 {
		t.Fatalf("the mutants do not cover the verdicts: %v", verdicts)
	}
}

// ---- The parent-written fixture store ------------------------------------
//
// testdata/parent-store is a mirrored, checksummed store written by
// writeFixtureStore compiled at commit d7c470e — the two-pass writer,
// before the one-traversal rewrite. (To regenerate it, check out the
// commit that should write it, add this function to a test there, and
// point it at the directory.)

var fixtureDirs = []string{"spool", "box"}

// fixtureSizes straddle the frame and append boundaries.
var fixtureSizes = []int{0, 1, 300, maxFramePayload, maxFramePayload + 1, 2*MaxAppend + 8}

func fixtureName(size int) string { return fmt.Sprintf("m%d", size) }

func fixtureBody(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte((i*31 + size) % 251)
	}
	return b
}

func openFixtureStore(root string) (*Mirrored, [2]*OS, error) {
	var oses [2]*OS
	var reps [2]System
	for i := range oses {
		o, err := NewOS(filepath.Join(root, fmt.Sprintf("r%d", i)), append([]string{MirrorMetaDir}, fixtureDirs...))
		if err != nil {
			return nil, oses, err
		}
		oses[i] = o
		reps[i] = NewChecksummed(o, fixtureDirs)
	}
	return NewMirrored(reps[0], reps[1], fixtureDirs), oses, nil
}

// writeFixtureStore delivers one message of every fixture size the way
// mailboat does: spool, seal, link into the box, unlink the spool entry.
func writeFixtureStore(root string) error {
	mir, oses, err := openFixtureStore(root)
	if err != nil {
		return err
	}
	defer oses[0].CloseAll()
	defer oses[1].CloseAll()
	th := NewNative(1)
	for _, size := range fixtureSizes {
		name := fixtureName(size)
		if !writeSealed(mir, th, "spool", name, fixtureBody(size)) ||
			!mir.Link(th, "spool", name, "box", name) || !mir.Delete(th, "spool", name) {
			return fmt.Errorf("writing %s failed", name)
		}
	}
	return nil
}

// TestParentWrittenStoreOpensClean: the format did not move. A store the
// parent commit wrote boots (resilver, scrub) clean under this code and
// serves every message; and this code, asked to write the same store,
// puts the same bytes on disk, file for file.
func TestParentWrittenStoreOpensClean(t *testing.T) {
	const fixture = "testdata/parent-store"
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	mir, oses, err := openFixtureStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer oses[0].CloseAll()
	defer oses[1].CloseAll()
	th := NewNative(1)
	if rep, _, ok := mir.Resilver(th); !ok || !rep.Clean() || rep.Corrupt+rep.Unsealed+rep.Healed != 0 {
		t.Fatalf("boot resilver of the parent's store: ok=%v %v", ok, rep)
	}
	if rep := mir.Scrub(th, false); rep.Checked != 2*len(fixtureSizes) || rep.Corrupt+rep.Unsealed != 0 {
		t.Fatalf("scrub of the parent's store: %v", rep)
	}
	for _, size := range fixtureSizes {
		if got, whole := readSealed(mir, th, "box", fixtureName(size)); !whole || !bytes.Equal(got, fixtureBody(size)) {
			t.Fatalf("%s: read %d bytes (whole=%v) of the parent's %d", fixtureName(size), len(got), whole, size)
		}
	}
	for i := range oses {
		if n := AsChecksummed(mir.rep[i]).Detected(); n != 0 {
			t.Fatalf("replica %d: %d detections on the parent's store", i, n)
		}
	}

	rewritten := t.TempDir()
	if err := writeFixtureStore(rewritten); err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(fixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		files++
		rel, _ := filepath.Rel(fixture, path)
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if got, err := os.ReadFile(filepath.Join(rewritten, rel)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: this code writes %d bytes (%v), the parent wrote %d — not the same file", rel, len(got), err, len(want))
		}
		return nil
	})
	if err != nil || files != 2*len(fixtureSizes) {
		t.Fatalf("walked %d fixture files, want %d: %v", files, 2*len(fixtureSizes), err)
	}
}

// BenchmarkFrameAndSealSum is the microbenchmark behind the
// one-traversal rewrite: the two sums every payload byte feeds, computed
// in two passes (the reference) and in one (fnv64a2).
func BenchmarkFrameAndSealSum(b *testing.B) {
	payload := bytes.Repeat([]byte("perennial "), 410)[:maxFramePayload]
	b.Run("two-pass", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		for b.Loop() {
			frameSum("box/m", 1, frameData, payload)
			sealSum("box/m", payload)
		}
	})
	b.Run("fused", func(b *testing.B) {
		pathSum := fnv64a(fnvOffset64, []byte("box/m"))
		b.SetBytes(int64(len(payload)))
		for b.Loop() {
			fnv64a2(frameStart(pathSum, 1, frameData), pathSum, payload)
		}
	})
}
