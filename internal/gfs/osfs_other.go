//go:build !linux

package gfs

import (
	"io"
	"os"
	"path/filepath"
)

// The OS backend's primitives where the raw *at system calls are not
// wired: the same operations through os.Root and *os.File, which bring
// their own containment and use-after-close checks.

// dirH is a directory handle, fileH a file handle.
type dirH = *os.Root
type fileH = *os.File

var noFile fileH // nil: every method on it fails with os.ErrInvalid

func openDir(path string) (dirH, error) { return os.OpenRoot(path) }

func openAt(d dirH, name string, flag int) (fileH, error) { return d.OpenFile(name, flag, 0o644) }

func unlinkAt(d dirH, name string) error { return d.Remove(name) }

// linkAt uses full paths: os.Root has no Link in this Go version.
func linkAt(oldD dirH, oldName string, newD dirH, newName string) error {
	return os.Link(filepath.Join(oldD.Name(), oldName), filepath.Join(newD.Name(), newName))
}

// syncDir opens the directory by path for the fsync: os.Root does not
// expose its descriptor.
func syncDir(d dirH) error {
	f, err := os.Open(d.Name())
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// listDir returns the names in the directory at path, directories left
// out; nil if it cannot be read.
func listDir(path string) []string {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}

// listHeld lists d by its path: os.Root does not expose its descriptor.
func listHeld(d dirH) []string { return listDir(d.Name()) }

func writeFile(f fileH, p []byte) (int, error) { return f.Write(p) }

// preadFile returns how many bytes it read, fewer than asked at end of
// file (or on a failed read).
func preadFile(f fileH, p []byte, off int64) int {
	n, _ := f.ReadAt(p, off)
	return n
}

func syncFile(f fileH) error { return f.Sync() }

// sizeFile is the file's length, 0 if it cannot be examined.
func sizeFile(f fileH) int64 {
	if st, err := f.Stat(); err == nil {
		return st.Size()
	}
	return 0
}

// closeH closes a directory or file handle.
func closeH(h io.Closer) { h.Close() }

func asFile(f fileH, _ string) *os.File { return f }
