package gfs_test

// The first rungs of the layer ladder as Go benchmarks, and the
// allocation budgets of the durable stack's data path as tests:
//
//	go test -run '^$' -bench . -benchmem ./internal/gfs/
//
// Each rung measures one layer over a no-op inner (oneFileFS), so its
// ns/op and allocs/op are the layer's own price; BenchmarkVaultPickup is
// the whole durable stack on a RAM-backed directory, and the BenchmarkOS*
// rungs are the bare OS backend there: each call alone, then the call
// sequences mailboat makes of them.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/fault"
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
func (o *oneFileFS) SyncDir(gfs.T, string) bool                  { return true }
func (o *oneFileFS) Link(gfs.T, string, string, string, string) bool {
	return true
}

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

// BenchmarkFaultyNever is Faulty(fault.Never) over the no-op inner: what
// the fault layer costs a call it does not fault. CI fails the build if
// either rung reports an allocation.
func BenchmarkFaultyNever(b *testing.B) {
	inner := &oneFileFS{data: body(256)}
	f := gfs.NewFaulty(inner, fault.Never{})
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

// ramOS opens the OS backend on a fresh RAM-backed directory (tmpfs where
// there is one, as in §9.3), removed with the test.
func ramOS(tb testing.TB, dirs []string) *gfs.OS {
	root, err := os.MkdirTemp(postal.RAMDir(), "gfs-bench-")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { os.RemoveAll(root) })
	o, err := gfs.NewOS(root, dirs)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(o.CloseAll)
	return o
}

// vault builds the durable deployment's stack under a fresh RAM-backed
// directory: Observed → Mirrored → 2 × (Checksummed → Faulty(Never) → OS).
func vault(tb testing.TB, cfg mailboat.Config) gfs.System {
	var reps [2]gfs.System
	for i := range reps {
		o := ramOS(tb, append([]string{gfs.MirrorMetaDir}, mailboat.Dirs(cfg)...))
		reps[i] = gfs.NewChecksummed(gfs.NewFaulty(o, fault.Never{}), mailboat.Dirs(cfg))
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
	f := gfs.NewFaulty(inner, fault.Never{})
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
			t.Errorf("%s: %v allocations through Faulty(fault.Never), %v without it", op.name, faulty, bare)
		}
	}
}

// TestMirroredAddsNoAllocations: over two healthy replicas the mirror's
// one insert, barrier and failover read put nothing on the heap; a
// Create allocates its descriptor and nothing else.
func TestMirroredAddsNoAllocations(t *testing.T) {
	m := gfs.NewMirrored(&oneFileFS{data: body(256)}, &oneFileFS{data: body(256)}, []string{"box"})
	th := gfs.NewNative(1)
	w, _ := m.Create(th, "box", "m")
	r, _ := m.Open(th, "box", "m")
	for _, op := range []struct {
		name string
		want float64
		call func()
	}{
		{"Sync", 0, func() { m.Sync(th, w) }},
		{"SyncDir", 0, func() { m.SyncDir(th, "box") }},
		{"ReadAt", 0, func() { m.ReadAt(th, r, 0, gfs.MaxAppend) }},
		{"Size", 0, func() { m.Size(th, r) }},
		{"Link", 0, func() { m.Link(th, "box", "m", "box", "n") }},
		{"Create", 1, func() { m.Create(th, "box", "m") }},
	} {
		if got := testing.AllocsPerRun(100, op.call); got != op.want {
			t.Errorf("Mirrored %s: %v allocations, want %v", op.name, got, op.want)
		}
	}
}

// TestChecksummedAllocationBudget pins the envelope layer's allocations
// over the no-op inner, which serves its bytes in place: an Open holds
// its descriptor and, for a file of more than one data frame, the
// plaintext, allocated once at its final size — a one-frame file's
// plaintext is served where it lies in the raw bytes; a ReadAt and a
// VerifyFile allocate nothing; an Append of up to one frame's payload
// allocates that frame and nothing else.
func TestChecksummedAllocationBudget(t *testing.T) {
	th := gfs.NewNative(1)
	open := func(c *gfs.Checksummed) {
		fd, ok := c.Open(th, "box", "m")
		if !ok {
			t.Fatal("open failed")
		}
		c.Close(th, fd)
	}
	big := gfs.NewChecksummed(&oneFileFS{data: envelopeOf(t, body(16384))}, []string{"box"})
	if got := testing.AllocsPerRun(100, func() { open(big) }); got != 2 {
		t.Errorf("Open of a sealed 16 KiB file: %v allocations, want 2 (plaintext, descriptor)", got)
	}
	small := gfs.NewChecksummed(&oneFileFS{data: envelopeOf(t, body(2048))}, []string{"box"})
	if got := testing.AllocsPerRun(100, func() { open(small) }); got != 1 {
		t.Errorf("Open of a sealed 2 KiB file: %v allocations, want 1 (descriptor)", got)
	}
	fd, _ := big.Open(th, "box", "m")
	if got := testing.AllocsPerRun(100, func() {
		if len(big.ReadAt(th, fd, 1024, gfs.ReadChunk)) != gfs.ReadChunk {
			t.Fatal("short read")
		}
	}); got != 0 {
		t.Errorf("ReadAt of %d bytes: %v allocations, want 0", gfs.ReadChunk, got)
	}
	big.Close(th, fd)
	if got := testing.AllocsPerRun(100, func() {
		if big.VerifyFile(th, "box", "m") != gfs.VerdictOK {
			t.Fatal("verify failed")
		}
	}); got != 0 {
		t.Errorf("VerifyFile of a sealed 16 KiB file: %v allocations, want 0 (the inner's bytes, judged in place)", got)
	}

	w, _ := big.Create(th, "box", "w")
	data := body(256)
	if got := testing.AllocsPerRun(100, func() { big.Append(th, w, data) }); got != 1 {
		t.Errorf("Append of one frame: %v allocations, want 1 (the frame)", got)
	}
}

// osBatch is how many files a state-changing rung lets pile up before it
// stops the clock and puts the directory back: it bounds the directory
// (and the descriptors BenchmarkOSPickupPath's mailboxes need) whatever
// b.N is, and spreads the cost of stopping the clock over a thousand calls.
const osBatch = 1024

// inBatches runs op b.N times on the clock, in batches of at most
// osBatch, with prep before and undo after each batch off the clock.
func inBatches(b *testing.B, prep func(n int), op func(i int), undo func(n int)) {
	b.ResetTimer() // the caller's set-up is not the rung
	for done := 0; done < b.N; done += osBatch {
		n := min(osBatch, b.N-done)
		b.StopTimer()
		prep(n)
		b.StartTimer()
		for i := 0; i < n; i++ {
			op(i)
		}
		b.StopTimer()
		undo(n)
		b.StartTimer()
	}
}

// batchNames returns osBatch distinct names.
func batchNames(prefix string) []string {
	names := make([]string, osBatch)
	for i := range names {
		names[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return names
}

func must(b *testing.B, ok bool, what string) {
	if !ok {
		b.Fatal(what + " failed")
	}
}

// BenchmarkOSOps prices each gfs.System call on the bare OS backend: the
// gfs.os.us_per_call.* rungs of the bench ladder, without the bench. A
// call that leaves a descriptor behind is timed with the Close that
// releases it.
func BenchmarkOSOps(b *testing.B) {
	o, th, data := ramOS(b, []string{"spool", "box"}), gfs.NewNative(1), body(256)
	names := batchNames("m")
	none := func(int) {}
	fill := func(dir string) func(int) {
		return func(n int) {
			for _, name := range names[:n] {
				fd, ok := o.Create(th, dir, name)
				must(b, ok, "create")
				o.Close(th, fd)
			}
		}
	}
	empty := func(dir string) func(int) {
		return func(n int) {
			for _, name := range names[:n] {
				must(b, o.Delete(th, dir, name), "delete")
			}
		}
	}
	// One sealed file for the calls that need one, eight names in box for
	// list (a mailbox between two pickups).
	writeFile(b, o, th, body(2048))
	for i := 0; i < 7; i++ {
		must(b, o.Link(th, "box", "m", "box", fmt.Sprintf("older%d", i)), "link")
	}

	b.Run("create", func(b *testing.B) {
		b.ReportAllocs()
		inBatches(b, none, func(i int) {
			fd, ok := o.Create(th, "spool", names[i])
			must(b, ok, "create")
			o.Close(th, fd)
		}, empty("spool"))
	})
	b.Run("append", func(b *testing.B) {
		var fd gfs.FD
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		inBatches(b, func(int) { fd, _ = o.Create(th, "spool", "grow") }, func(int) {
			must(b, o.Append(th, fd, data), "append")
		}, func(int) {
			o.Close(th, fd)
			o.Delete(th, "spool", "grow")
		})
	})
	b.Run("sync", func(b *testing.B) {
		fd, _ := o.Create(th, "spool", "synced")
		defer o.Delete(th, "spool", "synced")
		defer o.Close(th, fd)
		b.ReportAllocs()
		for b.Loop() {
			must(b, o.Sync(th, fd), "sync")
		}
	})
	b.Run("syncdir", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			must(b, o.SyncDir(th, "box"), "syncdir")
		}
	})
	b.Run("link", func(b *testing.B) {
		b.ReportAllocs()
		inBatches(b, none, func(i int) {
			must(b, o.Link(th, "box", "m", "spool", names[i]), "link")
		}, empty("spool"))
	})
	b.Run("delete", func(b *testing.B) {
		b.ReportAllocs()
		inBatches(b, fill("spool"), func(i int) {
			must(b, o.Delete(th, "spool", names[i]), "delete")
		}, none)
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			fd, ok := o.Open(th, "box", "m")
			must(b, ok, "open")
			o.Close(th, fd)
		}
	})
	b.Run("readat", func(b *testing.B) {
		fd, _ := o.Open(th, "box", "m")
		defer o.Close(th, fd)
		b.SetBytes(gfs.ReadChunk)
		b.ReportAllocs()
		for b.Loop() {
			must(b, len(o.ReadAt(th, fd, 1024, gfs.ReadChunk)) == gfs.ReadChunk, "readat")
		}
	})
	b.Run("list", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			must(b, len(o.List(th, "box")) == 8, "list")
		}
	})
}

// osDeliver makes, on the bare backend, exactly the calls mailboat.Deliver
// makes with SyncOnDeliver and SyncDirs set: spool the message, fsync it,
// link it into the mailbox, barrier the mailbox, drop the spool entry.
func osDeliver(b *testing.B, o *gfs.OS, th gfs.T, box, name string, msg []byte) {
	fd, ok := o.Create(th, "spool", name)
	for off := 0; ok && off < len(msg); off += gfs.MaxAppend {
		ok = o.Append(th, fd, msg[off:min(off+gfs.MaxAppend, len(msg))])
	}
	ok = ok && o.Sync(th, fd)
	o.Close(th, fd)
	must(b, ok && o.Link(th, "spool", name, box, name) && o.SyncDir(th, box) && o.Delete(th, "spool", name), "deliver")
}

// BenchmarkOSDeliverPath is gfs.os.self_us_per_deliver without the bench:
// one 2 KiB delivery's seven calls.
func BenchmarkOSDeliverPath(b *testing.B) {
	o, th, msg := ramOS(b, []string{"spool", "box"}), gfs.NewNative(1), body(2048)
	names := batchNames("m")
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	inBatches(b, func(int) {}, func(i int) { osDeliver(b, o, th, "box", names[i], msg) }, func(n int) {
		for _, name := range names[:n] {
			o.Delete(th, "box", name)
		}
	})
}

// BenchmarkOSPickupPath is gfs.os.self_us_per_pickup without the bench:
// the calls of a session that drains a mailbox holding one 2 KiB message
// — list, open, mailboat's ReadChunk loop to the empty read, close, and
// the delete with its barrier.
func BenchmarkOSPickupPath(b *testing.B) {
	boxes := batchNames("u")
	o, th, msg := ramOS(b, append([]string{"spool"}, boxes...)), gfs.NewNative(1), body(2048)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	inBatches(b, func(n int) {
		for _, box := range boxes[:n] {
			osDeliver(b, o, th, box, "m", msg)
		}
	}, func(i int) {
		box := boxes[i]
		for _, name := range o.List(th, box) {
			fd, ok := o.Open(th, box, name)
			must(b, ok, "open")
			read := 0
			for {
				chunk := o.ReadAt(th, fd, uint64(read), gfs.ReadChunk)
				if len(chunk) == 0 {
					break
				}
				read += len(chunk)
			}
			o.Close(th, fd)
			must(b, read == len(msg) && o.Delete(th, box, name) && o.SyncDir(th, box), "pickup")
		}
	}, func(int) {})
}

// TestOSAllocationBudget pins what the raw-descriptor backend puts on the
// heap per call: nothing for the calls that take no name, the names'
// C strings for the ones that do, and beyond that only what the call
// returns — for ReadAt, only the read window a pread fills.
func TestOSAllocationBudget(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the budget is the raw-descriptor backend's; elsewhere os.Root and os.File allocate as they please")
	}
	if raceBuild {
		t.Skip("the race detector's allocations are not the program's: it moves the end-of-file probe's stack buffer to the heap")
	}
	o, th, data := ramOS(t, []string{"spool", "box"}), gfs.NewNative(1), body(256)
	writeFile(t, o, th, body(2048))
	w, _ := o.Create(th, "spool", "w")
	defer o.Close(th, w)
	r, _ := o.Open(th, "box", "m")
	defer o.Close(th, r)
	o.ReadAt(th, r, 0, gfs.ReadChunk) // r's window: the first chunk
	atEOF, _ := o.Open(th, "box", "m")
	defer o.Close(th, atEOF)
	o.ReadAt(th, atEOF, 1024, 2048) // a short read: end of file at 2048
	refill, _ := o.Open(th, "box", "m")
	defer o.Close(th, refill)
	fills := 0
	closed, _ := o.Open(th, "box", "m")
	for _, op := range []struct {
		name string
		want float64
		why  string
		call func() bool
	}{
		{"SyncDir", 0, "no name, no result", func() bool { return o.SyncDir(th, "box") }},
		{"Sync", 0, "no name, no result", func() bool { return o.Sync(th, w) }},
		{"Append", 0, "no name, no result", func() bool { return o.Append(th, w, data) }},
		{"Close", 0, "no name, no result", func() bool { o.Close(th, closed); return true }},
		{"Size", 0, "no name, no result", func() bool { return o.Size(th, r) == 2048 }},
		{"Delete", 1, "the name's C string", func() bool { return !o.Delete(th, "box", "absent") }},
		{"Link", 2, "the two names' C strings", func() bool { return !o.Link(th, "box", "m", "box", "m") }},
		{"ReadAt in the window", 0, "a subslice of the window", func() bool { return len(o.ReadAt(th, r, 0, gfs.ReadChunk)) == gfs.ReadChunk }},
		{"ReadAt at end of file", 0, "a one-byte probe on the stack", func() bool { return o.ReadAt(th, atEOF, 2048, gfs.ReadChunk) == nil }},
		{"ReadAt filling the window", 1, "the window", func() bool {
			fills++ // 0 and 1024 in turn: neither continues the other
			return len(o.ReadAt(th, refill, uint64(fills%2)*1024, gfs.ReadChunk)) == gfs.ReadChunk
		}},
		{"List", 1, "the names' slice, on the held descriptor (a one-byte name is static)", func() bool { return len(o.List(th, "box")) == 1 }},
		{"Open+Close", 2, "the name's C string and the descriptor", func() bool {
			fd, ok := o.Open(th, "box", "m")
			o.Close(th, fd)
			return ok
		}},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if !op.call() {
				t.Fatalf("%s did not do what the budget prices", op.name)
			}
		}); got != op.want {
			t.Errorf("%s: %v allocations, want %v (%s)", op.name, got, op.want, op.why)
		}
	}
}
