//go:build linux

package gfs

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestOSStaleFDNeverHitsARecycledDescriptor: the kernel hands a closed
// descriptor's number to the next open. Every call on the closed FD
// must fail on its own, without touching the file that now owns the
// number — in particular a second Close must not close that file.
func TestOSStaleFDNeverHitsARecycledDescriptor(t *testing.T) {
	o := newOSFS(t, []string{"d"})
	th := NewNative(1)
	seed, _ := o.Create(th, "d", "seed")
	o.Append(th, seed, []byte("seed bytes"))
	o.Close(th, seed)

	for _, mode := range []string{"append", "read"} {
		t.Run(mode, func(t *testing.T) {
			// open opens a file in the mode under test; the read-mode
			// ones all have bytes a stray ReadAt or Size would find.
			open := func(name string) FD {
				if mode == "read" {
					if !o.Link(th, "d", "seed", "d", name) {
						t.Fatalf("link %s failed", name)
					}
					fd, ok := o.Open(th, "d", name)
					if !ok {
						t.Fatalf("open %s failed", name)
					}
					return fd
				}
				fd, ok := o.Create(th, "d", name)
				if !ok || !o.Append(th, fd, []byte("seed bytes")) {
					t.Fatalf("create %s failed", name)
				}
				return fd
			}
			stale := open(mode + "-stale")
			number := stale.(*osFD).f
			if mode == "read" { // fills the window a stale read must not be served from
				if got := string(o.ReadAt(th, stale, 0, 4)); got != "seed" {
					t.Fatalf("the open FD reads %q", got)
				}
			}
			o.Close(th, stale)

			var other FD
			for i := 0; i < 64 && other == nil; i++ {
				fd := open(fmt.Sprintf("%s-other%d", mode, i))
				if fd.(*osFD).f == number {
					other = fd
				} else {
					defer o.Close(th, fd)
				}
			}
			if other == nil {
				t.Skipf("descriptor %d was not reused within 64 opens", number)
			}

			if o.Append(th, stale, []byte("stray")) {
				t.Error("Append on a closed FD reported success")
			}
			if o.Sync(th, stale) {
				t.Error("Sync on a closed FD reported success")
			}
			if got := o.ReadAt(th, stale, 0, 4); len(got) != 0 {
				t.Errorf("ReadAt on a closed FD returned %q", got)
			}
			if got := o.Size(th, stale); got != 0 {
				t.Errorf("Size on a closed FD returned %d", got)
			}
			o.Close(th, stale)

			// The file that owns the number now is open and untouched.
			if got := o.Size(th, other); got != uint64(len("seed bytes")) {
				t.Errorf("the other file's size is %d after the stale calls", got)
			}
			if mode == "read" {
				if got := string(o.ReadAt(th, other, 0, 64)); got != "seed bytes" {
					t.Errorf("the other file reads %q after the stale calls", got)
				}
			} else if !o.Append(th, other, []byte("!")) || !o.Sync(th, other) {
				t.Error("the other file's descriptor no longer works after the stale calls")
			}
			o.Close(th, other)
		})
	}
}

// dirent builds one linux_dirent64 record.
func dirent(ino uint64, typ byte, name string) []byte {
	rec := make([]byte, (19+len(name)+1+7)&^7)
	binary.NativeEndian.PutUint64(rec, ino)
	binary.NativeEndian.PutUint16(rec[16:], uint16(len(rec)))
	rec[18] = typ
	copy(rec[19:], name)
	return rec
}

// TestParseDirents: directories and dead entries are left out by their
// type alone, an unreported type is put to isDir, and a buffer cut short
// ends the parse instead of running past it.
func TestParseDirents(t *testing.T) {
	const dtUnknown, dtDir, dtReg, dtLnk = 0, 4, 8, 10
	var buf []byte
	for _, e := range []struct {
		ino  uint64
		typ  byte
		name string
	}{
		{1, dtDir, "."}, {2, dtDir, ".."}, {3, dtReg, "msg1"}, {4, dtDir, "subdir"},
		{0, dtReg, "dead"}, {5, dtUnknown, "untyped-file"}, {6, dtUnknown, "untyped-dir"},
		{7, dtLnk, "symlink"}, {8, dtUnknown, "."}, {9, dtReg, "a-name-longer-than-one-eight-byte-pad"},
	} {
		buf = append(buf, dirent(e.ino, e.typ, e.name)...)
	}
	var asked []string
	isDir := func(name string) bool {
		asked = append(asked, name)
		return name == "untyped-dir"
	}
	want := []string{"kept", "msg1", "untyped-file", "symlink", "a-name-longer-than-one-eight-byte-pad"}
	if got := parseDirents(buf, []string{"kept"}, isDir); !slices.Equal(got, want) {
		t.Errorf("parsed %q, want %q", got, want)
	}
	if want := []string{"untyped-file", "untyped-dir"}; !slices.Equal(asked, want) {
		t.Errorf("isDir asked about %q, want %q", asked, want)
	}
	for cut := 0; cut < len(buf); cut++ {
		parseDirents(buf[:cut], nil, isDir) // must not panic
	}
}

// TestIsDirAt: the probe behind an unreported d_type tells a directory
// from a file, and does not follow a symlink to a directory.
func TestIsDirAt(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("sub", filepath.Join(root, "link")); err != nil {
		t.Fatal(err)
	}
	d, err := openDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer closeH(d)
	for name, want := range map[string]bool{"sub": true, "file": false, "link": false, "absent": false} {
		if got := isDirAt(d, name); got != want {
			t.Errorf("isDirAt(%q) = %v, want %v", name, got, want)
		}
	}
}
