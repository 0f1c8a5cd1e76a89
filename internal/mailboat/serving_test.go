package mailboat

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/gfs"
)

// The serving path as bench/'s mail-direct drives it — Deliver, Pickup,
// Delete, Unlock straight into the library over gfs.OS with the durable
// discipline on — priced here so a change to the delivery stages or the
// read loop shows before the pipeline's proc.allocs_per_op and
// mailboat.self_us_per_{deliver,pickup} do.

// servingSizes are one message under a read chunk and one over two
// append chunks (three appends, seventeen reads).
var servingSizes = []int{300, 8200}

// servingStore opens a store on tmpfs when the host has one (as the
// bench does: fsync is then RAM, and what is left is the library's own
// time), else in the test's temp dir; the allocation count is the same
// on either.
func servingStore(tb testing.TB) (*Mailboat, *gfs.Native) {
	c := Config{Users: 1, RandBound: 1 << 62, SyncOnDeliver: true, SyncDirs: true}
	root, err := os.MkdirTemp("/dev/shm", "mailboat-serving")
	if err != nil {
		root = tb.TempDir()
	} else {
		tb.Cleanup(func() { os.RemoveAll(root) })
	}
	osfs, err := gfs.NewOS(root, Dirs(c))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(osfs.CloseAll)
	th := gfs.NewNative(1)
	return Init(th, nil, osfs, c), th
}

// serveOne is one request cycle; it leaves the mailbox empty.
func serveOne(tb testing.TB, mb *Mailboat, th *gfs.Native, msg []byte) {
	if !mb.Deliver(th, nil, 0, msg) {
		tb.Fatal("deliver refused")
	}
	msgs := mb.Pickup(th, nil, 0)
	if len(msgs) != 1 || len(msgs[0].Contents) != len(msg) {
		tb.Fatalf("pickup returned %d messages", len(msgs))
	}
	if !mb.Delete(th, nil, 0, msgs[0].ID) {
		tb.Fatal("delete refused")
	}
	mb.Unlock(th, nil, 0)
}

// TestDeliverPickupAllocs holds the cycle's allocation count at the
// figure measured at 184cb23 (the commit before delivery became
// stages): tokens are passed by value and the read loop's chunk buffer
// is reused, so neither may add an object.
func TestDeliverPickupAllocs(t *testing.T) {
	atParent := map[int]float64{300: 26, 8200: 47}
	mb, th := servingStore(t)
	for _, size := range servingSizes {
		msg := bytes.Repeat([]byte("m"), size)
		serveOne(t, mb, th, msg) // warm the directory-descriptor cache
		got := testing.AllocsPerRun(200, func() { serveOne(t, mb, th, msg) })
		t.Logf("%d-byte message: %.1f allocs per deliver+pickup+delete+unlock", size, got)
		if got > atParent[size] {
			t.Errorf("%d-byte message: %.1f allocs per cycle, %.1f at the parent", size, got, atParent[size])
		}
	}
}

func BenchmarkDeliverPickup(b *testing.B) {
	for _, size := range servingSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			mb, th := servingStore(b)
			msg := bytes.Repeat([]byte("m"), size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				serveOne(b, mb, th, msg)
			}
		})
	}
}
