//go:build linux

package mailboat

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gfs"
)

// readSyscalls is this process's read system calls so far: /proc/self/io's
// syscr, which counts every read and pread.
func readSyscalls(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no read-call counter: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("syscr line %q: %v", line, err)
			}
			return n
		}
	}
	t.Skip("no syscr line in /proc/self/io")
	return 0
}

// TestPickupReadCalls pins what Pickup's 512-byte loop costs one message
// on gfs.OS: a descriptor answers a range it has read from its read
// window, which grows after each full read, so a message is a few
// preads and an end-of-file probe — not one pread per chunk (2 / 5 / 33).
func TestPickupReadCalls(t *testing.T) {
	fs, err := gfs.NewOS(t.TempDir(), []string{"box"})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.CloseAll()
	th := gfs.NewNative(1)
	for _, c := range []struct{ size, want int }{{256, 2}, {2 << 10, 3}, {16 << 10, 4}} {
		name := strconv.Itoa(c.size)
		msg := bytes.Repeat([]byte("m"), c.size)
		w, ok := fs.Create(th, "box", name)
		for off := 0; ok && off < len(msg); off += gfs.MaxAppend {
			ok = fs.Append(th, w, msg[off:min(off+gfs.MaxAppend, len(msg))])
		}
		fs.Close(th, w)
		if !ok {
			t.Fatalf("writing %s failed", name)
		}
		calls := -1
		for range 5 { // the fewest of five: another goroutine's read can only add
			fd, ok := fs.Open(th, "box", name)
			if !ok {
				t.Fatalf("open %s failed", name)
			}
			empty := readSyscalls(t)
			empty = readSyscalls(t) - empty // what reading the counter costs
			before := readSyscalls(t)
			got, _ := readAll(th, fs, fd, nil)
			n := readSyscalls(t) - before - empty
			fs.Close(th, fd)
			if got != string(msg) {
				t.Fatalf("%d-byte message read back as %d bytes", c.size, len(got))
			}
			if calls < 0 || n < calls {
				calls = n
			}
		}
		t.Logf("%d-byte message: %d read calls", c.size, calls)
		if calls > c.want {
			t.Errorf("%d-byte message: %d read calls, want at most %d", c.size, calls, c.want)
		}
	}
}

// TestVaultPickupReadCalls is TestPickupReadCalls on the vault's
// envelope: Checksummed over gfs.OS reads a whole envelope in one pread
// at Open and serves Pickup's 512-byte loop from the verified plaintext,
// so a 256 B, 2 KiB or 16 KiB message costs exactly one read call at
// Open and none in the loop.
func TestVaultPickupReadCalls(t *testing.T) {
	o, err := gfs.NewOS(t.TempDir(), []string{"box"})
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseAll()
	fs := gfs.NewChecksummed(o, []string{"box"})
	th := gfs.NewNative(1)
	for _, size := range []int{256, 2 << 10, 16 << 10} {
		name := strconv.Itoa(size)
		msg := bytes.Repeat([]byte("m"), size)
		w, ok := fs.Create(th, "box", name)
		for off := 0; ok && off < len(msg); off += gfs.MaxAppend {
			ok = fs.Append(th, w, msg[off:min(off+gfs.MaxAppend, len(msg))])
		}
		ok = ok && fs.Sync(th, w)
		fs.Close(th, w)
		if !ok {
			t.Fatalf("writing %s failed", name)
		}
		opens, loops := -1, -1
		for range 5 { // the fewest of five: another goroutine's read can only add
			empty := readSyscalls(t)
			empty = readSyscalls(t) - empty // what reading the counter costs
			before := readSyscalls(t)
			fd, ok := fs.Open(th, "box", name)
			atOpen := readSyscalls(t) - before - empty
			if !ok {
				t.Fatalf("open %s failed", name)
			}
			before = readSyscalls(t)
			got, _ := readAll(th, fs, fd, nil)
			inLoop := readSyscalls(t) - before - empty
			fs.Close(th, fd)
			if got != string(msg) {
				t.Fatalf("%d-byte message read back as %d bytes", size, len(got))
			}
			if opens < 0 || atOpen < opens {
				opens = atOpen
			}
			if loops < 0 || inLoop < loops {
				loops = inLoop
			}
		}
		t.Logf("%d-byte message: %d read calls at Open, %d in the loop", size, opens, loops)
		if opens != 1 || loops != 0 {
			t.Errorf("%d-byte message: %d read calls at Open and %d in the loop, want 1 and 0", size, opens, loops)
		}
	}
}
