package gfs_test

// The first rungs of the layer ladder as Go benchmarks, and the
// allocation budgets of the durable stack's data path as tests:
//
//	go test -run '^$' -bench . -benchmem ./internal/gfs/
//
// Each rung measures one layer over a no-op inner (oneFileFS), so its
// ns/op and allocs/op are the layer's own price; BenchmarkVaultPickup is
// the whole durable stack on a RAM-backed directory.

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/gfs"
	"repro/internal/mailboat"
	"repro/internal/obs"
	"repro/internal/postal"
)

// oneFileFS is the no-op inner: it holds one file's bytes and serves
// them without allocating; an Append is kept only while capture is set
// and thrown away otherwise.
type oneFileFS struct {
	gfs.System // the operations no rung calls
	data       []byte
	capture    bool
}

type oneFD struct{}

var theFD gfs.FD = oneFD{}

func (o *oneFileFS) Create(gfs.T, string, string) (gfs.FD, bool) { return theFD, true }
func (o *oneFileFS) Open(gfs.T, string, string) (gfs.FD, bool)   { return theFD, true }
func (o *oneFileFS) Close(gfs.T, gfs.FD)                         {}
func (o *oneFileFS) Sync(gfs.T, gfs.FD) bool                     { return true }
func (o *oneFileFS) Size(gfs.T, gfs.FD) uint64                   { return uint64(len(o.data)) }

func (o *oneFileFS) Append(_ gfs.T, _ gfs.FD, data []byte) bool {
	if o.capture {
		o.data = append(o.data, data...)
	}
	return true
}

func (o *oneFileFS) ReadAt(_ gfs.T, _ gfs.FD, off, n uint64) []byte {
	if off >= uint64(len(o.data)) {
		return nil
	}
	return o.data[off:min(off+n, uint64(len(o.data)))]
}

var rungSizes = []int{256, 2048, 16384}

func body(n int) []byte { return bytes.Repeat([]byte("perennial "), n/10+1)[:n] }

// writeFile writes data through sys the way mailboat does: MaxAppend at
// a time, then Sync (which seals an envelope) and Close.
func writeFile(tb testing.TB, sys gfs.System, th gfs.T, data []byte) {
	fd, ok := sys.Create(th, "box", "m")
	for off := 0; ok && off < len(data); off += gfs.MaxAppend {
		ok = sys.Append(th, fd, data[off:min(off+gfs.MaxAppend, len(data))])
	}
	if !ok || !sys.Sync(th, fd) {
		tb.Fatal("write failed")
	}
	sys.Close(th, fd)
}

// envelopeOf returns the envelope Checksummed writes for data.
func envelopeOf(tb testing.TB, data []byte) []byte {
	inner := &oneFileFS{capture: true}
	writeFile(tb, gfs.NewChecksummed(inner, []string{"box"}), gfs.NewNative(1), data)
	return inner.data
}

func BenchmarkEnvelopeVerify(b *testing.B) {
	for _, size := range rungSizes {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			raw := envelopeOf(b, body(size))
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				if gfs.VerifyEnvelope(raw) != gfs.VerdictOK {
					b.Fatal("sound envelope refused")
				}
			}
		})
	}
}

func BenchmarkEnvelopeWrite(b *testing.B) {
	for _, size := range rungSizes {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			c := gfs.NewChecksummed(&oneFileFS{}, []string{"box"})
			th, data := gfs.NewNative(1), body(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				writeFile(b, c, th, data)
			}
		})
	}
}

// BenchmarkFaultyNever is Faulty(NeverPolicy) over the no-op inner: what
// the fault layer costs a call it does not fault. CI fails the build if
// either rung reports an allocation.
func BenchmarkFaultyNever(b *testing.B) {
	inner := &oneFileFS{data: body(256)}
	f := gfs.NewFaulty(inner, gfs.NeverPolicy{})
	th, data := gfs.NewNative(1), body(256)
	b.Run("Append", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			f.Append(th, theFD, data)
		}
	})
	b.Run("ReadAt", func(b *testing.B) {
		b.SetBytes(int64(len(inner.data)))
		b.ReportAllocs()
		for b.Loop() {
			f.ReadAt(th, theFD, 0, gfs.MaxAppend)
		}
	})
}

// vault builds the durable deployment's stack under a fresh RAM-backed
// directory: Observed → Mirrored → 2 × (Checksummed → Faulty(Never) → OS).
func vault(tb testing.TB, cfg mailboat.Config) gfs.System {
	root, err := os.MkdirTemp(postal.RAMDir(), "gfs-bench-")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { os.RemoveAll(root) })
	var reps [2]gfs.System
	for i := range reps {
		o, err := gfs.NewOS(fmt.Sprintf("%s/r%d", root, i), append([]string{gfs.MirrorMetaDir}, mailboat.Dirs(cfg)...))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(o.CloseAll)
		reps[i] = gfs.NewChecksummed(gfs.NewFaulty(o, gfs.NeverPolicy{}), mailboat.Dirs(cfg))
	}
	mir := gfs.NewMirrored(reps[0], reps[1], mailboat.Dirs(cfg))
	return gfs.NewObserved(mir, gfs.NewFSMetrics(obs.NewRegistry()))
}

// BenchmarkVaultPickup reads one mailbox holding a message of each rung
// size through mailboat over the whole durable stack; bytes/op are the
// user bytes a pickup returns.
func BenchmarkVaultPickup(b *testing.B) {
	cfg := mailboat.Config{Users: 1, RandBound: 1 << 62, SyncOnDeliver: true, SyncDirs: true}
	th := gfs.NewNative(1)
	mb := mailboat.Recover(th, nil, vault(b, cfg), cfg, nil)
	total := 0
	for _, size := range rungSizes {
		if !mb.Deliver(th, nil, 0, body(size)) {
			b.Fatal("deliver failed")
		}
		total += size
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	for b.Loop() {
		if msgs := mb.Pickup(th, nil, 0); len(msgs) != len(rungSizes) {
			b.Fatalf("picked up %d messages", len(msgs))
		}
		mb.Unlock(th, nil, 0)
	}
}

// TestFaultyNeverAddsNoAllocations: a call the policy does not fault
// costs Faulty its counters and one Decide — no detail string, nothing
// on the heap — on every operation of the data path.
func TestFaultyNeverAddsNoAllocations(t *testing.T) {
	inner := &oneFileFS{data: body(256)}
	f := gfs.NewFaulty(inner, gfs.NeverPolicy{})
	th, data := gfs.NewNative(1), body(256)
	for _, op := range []struct {
		name string
		call func(sys gfs.System)
	}{
		{"Append", func(sys gfs.System) { sys.Append(th, theFD, data) }},
		{"ReadAt", func(sys gfs.System) { sys.ReadAt(th, theFD, 0, gfs.MaxAppend) }},
		{"Size", func(sys gfs.System) { sys.Size(th, theFD) }},
		{"Sync", func(sys gfs.System) { sys.Sync(th, theFD) }},
	} {
		bare := testing.AllocsPerRun(100, func() { op.call(inner) })
		faulty := testing.AllocsPerRun(100, func() { op.call(f) })
		if faulty != bare {
			t.Errorf("%s: %v allocations through Faulty(NeverPolicy), %v without it", op.name, faulty, bare)
		}
	}
}

// TestChecksummedAllocationBudget pins the envelope layer's allocations
// over the no-op inner: an Open holds the raw file and the plaintext,
// each allocated once at its final size, and its descriptor; an Append
// of up to one frame's payload allocates that frame and nothing else.
func TestChecksummedAllocationBudget(t *testing.T) {
	th := gfs.NewNative(1)
	inner := &oneFileFS{data: envelopeOf(t, body(16384))}
	c := gfs.NewChecksummed(inner, []string{"box"})
	if got := testing.AllocsPerRun(100, func() {
		fd, ok := c.Open(th, "box", "m")
		if !ok {
			t.Fatal("open failed")
		}
		c.Close(th, fd)
	}); got != 3 {
		t.Errorf("Open of a sealed 16 KiB file: %v allocations, want 3 (raw bytes, plaintext, descriptor)", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if c.VerifyFile(th, "box", "m") != gfs.VerdictOK {
			t.Fatal("verify failed")
		}
	}); got != 1 {
		t.Errorf("VerifyFile of a sealed 16 KiB file: %v allocations, want 1 (raw bytes; no plaintext)", got)
	}

	fd, _ := c.Create(th, "box", "w")
	data := body(256)
	if got := testing.AllocsPerRun(100, func() { c.Append(th, fd, data) }); got != 1 {
		t.Errorf("Append of one frame: %v allocations, want 1 (the frame)", got)
	}
}
