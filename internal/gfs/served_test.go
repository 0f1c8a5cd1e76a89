package gfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// firstReadShort shortens the first read a Faulty layer serves, and
// faults nothing else.
type firstReadShort struct{}

func (firstReadShort) Decide(_ fault.T, c fault.Class, index uint64) bool {
	return c == fault.ReadShort && index == 0
}

// servedBackend runs body on a thread of a fresh backend of one kind,
// handing it the backend itself (to corrupt files behind the envelope's
// back) and the envelope over a Faulty layer with pol over it.
type servedBackend struct {
	name string
	run  func(t *testing.T, pol fault.Policy, body func(th T, raw Corrupter, f *Faulty, c *Checksummed))
}

var servedDirs = []string{"box"}

var servedBackends = []servedBackend{
	{"Model", func(t *testing.T, pol fault.Policy, body func(T, Corrupter, *Faulty, *Checksummed)) {
		mm := machine.New(machine.Options{MaxSteps: 100000})
		fs := NewModel(mm, servedDirs)
		f := NewFaulty(fs, pol)
		first := machine.ChooserFunc(func(int, string) int { return 0 })
		res := mm.RunEra(first, false, func(mt *machine.T) { body(mt, fs, f, NewChecksummed(f, servedDirs)) })
		if res.Outcome != machine.Done {
			t.Fatalf("era: %+v", res)
		}
	}},
	{"OS", func(t *testing.T, pol fault.Policy, body func(T, Corrupter, *Faulty, *Checksummed)) {
		o := newOSFS(t, servedDirs)
		f := NewFaulty(o, pol)
		body(NewNative(1), o, f, NewChecksummed(f, servedDirs))
	}},
}

// appendKeepsNextRead reports whether appending to the first half of
// plain, as read reads it, leaves the second half as read serves it.
func appendKeepsNextRead(read func(off, n uint64) []byte, plain []byte) bool {
	half := uint64(len(plain) / 2)
	_ = append(read(0, half), bytes.Repeat([]byte("X"), int(half))...)
	return bytes.Equal(read(half, half), plain[half:2*half])
}

// TestServedBytesNeverChange: the envelope serves verified plaintext in
// place, so nothing may write to it once it is served — not a caller's
// append to a ReadAt result (a), not a corruption of the file under an
// open descriptor (b). readAll hands back its first chunk uncopied, and
// a first chunk a ReadShort cut falls back to the copying loop (c). The
// negative control (d) is a read that is not cap-limited: (a) catches it.
func TestServedBytesNeverChange(t *testing.T) {
	for _, be := range servedBackends {
		for _, size := range []int{256, 2048, 16384} {
			msg := bytes.Repeat([]byte("perennial "), size/10+1)[:size]
			name := fmt.Sprint(size)
			t.Run(fmt.Sprintf("%s/%d", be.name, size), func(t *testing.T) {
				be.run(t, fault.Never{}, func(th T, raw Corrupter, _ *Faulty, c *Checksummed) {
					if !writeSealed(c, th, "box", name, msg) {
						t.Error("write failed")
						return
					}
					fd, ok := c.Open(th, "box", name)
					if !ok {
						t.Error("open failed")
						return
					}
					read := func(off, n uint64) []byte { return c.ReadAt(th, fd, off, n) }
					if !appendKeepsNextRead(read, msg) {
						t.Error("(a) an append to a ReadAt result changed the next read")
					}
					if !raw.CorruptFile(th, "box", name, CorruptFlip) {
						t.Error("corrupt failed")
					}
					if got := read(0, uint64(size)); !bytes.Equal(got, msg) {
						t.Error("(b) a corruption of the file changed what an open descriptor serves")
					}
					if _, ok := c.Open(th, "box", name); ok {
						t.Error("the corrupted file opened")
					}
					c.Close(th, fd)
					if got := read(0, uint64(size)); got != nil || fd.(*checksumFD).plain.data != nil {
						t.Errorf("a closed descriptor serves %d bytes and keeps its plaintext", len(got))
					}
				})
			})
			t.Run(fmt.Sprintf("%s/%d/short-first-read", be.name, size), func(t *testing.T) {
				be.run(t, firstReadShort{}, func(th T, _ Corrupter, f *Faulty, c *Checksummed) {
					if !writeSealed(c, th, "box", name, msg) {
						t.Error("write failed")
						return
					}
					fd, ok := c.Open(th, "box", name)
					if _, faults := f.Counters(); !ok || faults[fault.ReadShort] != 1 {
						t.Errorf("(c) opened=%v after %d short reads, want true after 1", ok, faults[fault.ReadShort])
						return
					}
					if !bytes.Equal(c.ReadAt(th, fd, 0, uint64(size)), msg) {
						t.Error("(c) the envelope read after a short first read serves other bytes")
					}
					c.Close(th, fd)
				})
			})
		}
	}
	uncapped := bytes.Repeat([]byte("perennial "), 52)
	plain := bytes.Clone(uncapped)
	if appendKeepsNextRead(func(off, n uint64) []byte { return uncapped[off : off+n] }, plain) {
		t.Error("(d) negative control: a read that is not cap-limited passed (a)")
	}
}
