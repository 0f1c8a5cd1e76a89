//go:build linux

package gfs

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"syscall"
	"unsafe"
)

// The OS backend's primitives on Linux: each is one raw system call on a
// kernel descriptor number (EINTR retried, as package os does), with no
// *os.File — no attempt to register the descriptor with the poller, no
// finalizer, no poll.FD lock — in between.

// dirH is a directory descriptor, fileH a file descriptor.
type dirH = int
type fileH = int

const noFile fileH = -1  // every system call on it fails with EBADF
const cwdDir dirH = -100 // AT_FDCWD: openDir's path is then an ordinary path

// retry runs fn until it reports something other than EINTR.
func retry(fn func() error) error {
	for {
		if err := fn(); err != syscall.EINTR {
			return err
		}
	}
}

// retryN is retry for calls that also return a count or a descriptor.
func retryN(fn func() (int, error)) (n int, err error) {
	err = retry(func() (e error) { n, e = fn(); return e })
	return n, err
}

// sysOpenat is openat(2) with O_CLOEXEC, for directories and files alike.
func sysOpenat(d dirH, path string, flag int, perm uint32) (int, error) {
	return retryN(func() (int, error) { return syscall.Openat(d, path, flag|syscall.O_CLOEXEC, perm) })
}

func openDir(path string) (dirH, error) {
	return sysOpenat(cwdDir, path, syscall.O_RDONLY|syscall.O_DIRECTORY, 0)
}

// openAt opens name in d with package os's O_* flags. O_NOFOLLOW: a
// symlink planted at name is refused, not followed out of d.
func openAt(d dirH, name string, flag int) (fileH, error) {
	return sysOpenat(d, name, flag|syscall.O_NOFOLLOW, 0o644)
}

func unlinkAt(d dirH, name string) error {
	return retry(func() error { return syscall.Unlinkat(d, name) })
}

// linkAt is linkat(2), which package syscall does not export. Flags 0:
// a symlink at oldName would itself be linked, not followed.
func linkAt(oldD dirH, oldName string, newD dirH, newName string) error {
	from, err1 := syscall.BytePtrFromString(oldName)
	to, err2 := syscall.BytePtrFromString(newName)
	if err1 != nil || err2 != nil {
		return syscall.EINVAL
	}
	return retry(func() error {
		if _, _, e := syscall.Syscall6(syscall.SYS_LINKAT, uintptr(oldD), uintptr(unsafe.Pointer(from)),
			uintptr(newD), uintptr(unsafe.Pointer(to)), 0, 0); e != 0 {
			return e
		}
		return nil
	})
}

func fstat(fd int) (st syscall.Stat_t, err error) {
	err = retry(func() error { return syscall.Fstat(fd, &st) })
	return st, err
}

// syncDir fsyncs the held directory descriptor. A directory unlinked
// from under the store still has an inode to flush, so fsync succeeds,
// but its entries are reachable from nowhere: link count 0 says so, and
// that is not a barrier.
func syncDir(d dirH) error {
	if err := syncFile(d); err != nil {
		return err
	}
	st, err := fstat(d)
	if err == nil && st.Nlink == 0 {
		err = syscall.ENOENT
	}
	return err
}

// listDir returns the names in the directory at path, directories left
// out, unsorted; nil if it cannot be read to its end.
func listDir(path string) []string {
	d, err := openDir(path)
	if err != nil {
		return nil
	}
	defer closeH(d)
	return readNames(d)
}

// listHeld is listDir on a held descriptor. It rewinds d first, and d's
// file offset is shared by every user of d: the caller serializes it.
func listHeld(d dirH) []string {
	if _, err := syscall.Seek(d, 0, io.SeekStart); err != nil {
		return nil
	}
	return readNames(d)
}

// readNames reads d's entries from its file offset to the end.
func readNames(d dirH) []string {
	names := make([]string, 0, 16) // a mailbox between two pickups holds a few names
	var buf [8192]byte
	for {
		n, err := retryN(func() (int, error) { return syscall.ReadDirent(d, buf[:]) })
		if err != nil {
			return nil
		}
		if n == 0 {
			return names
		}
		names = parseDirents(buf[:n], names, func(name string) bool { return isDirAt(d, name) })
	}
}

// isDirAt decides what a file system that reports no d_type left open:
// name is a directory exactly if it opens as one. (fstatat would be one
// call instead of two, but package syscall does not export it on amd64.)
func isDirAt(d dirH, name string) bool {
	sub, err := sysOpenat(d, name, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_NOFOLLOW, 0)
	if err == nil {
		closeH(sub)
	}
	return err == nil
}

// parseDirents appends to names the non-directory entries of buf, a
// buffer of linux_dirent64 records (ino u64, off s64, reclen u16, type
// u8, NUL-terminated name) parsed where getdents64 left them; isDir
// decides entries whose type the file system did not report.
func parseDirents(buf []byte, names []string, isDir func(name string) bool) []string {
	const nameOff, dtUnknown, dtDir = 19, 0, 4
	for len(buf) >= nameOff {
		reclen := int(binary.NativeEndian.Uint16(buf[16:]))
		if reclen < nameOff || reclen > len(buf) {
			break
		}
		ino, typ, name := binary.NativeEndian.Uint64(buf), buf[18], buf[nameOff:reclen]
		buf = buf[reclen:]
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		if ino == 0 || typ == dtDir || string(name) == "." || string(name) == ".." {
			continue
		}
		if s := string(name); typ != dtUnknown || !isDir(s) {
			names = append(names, s)
		}
	}
	return names
}

func writeFile(f fileH, p []byte) (int, error) {
	return retryN(func() (int, error) { return syscall.Write(f, p) })
}

// preadFile is one pread, returning how many bytes it read (none if it
// failed): a regular file returns fewer than asked only at end of file.
func preadFile(f fileH, p []byte, off int64) int {
	n, _ := retryN(func() (int, error) { return syscall.Pread(f, p, off) })
	return max(n, 0)
}

func syncFile(f fileH) error { return retry(func() error { return syscall.Fsync(f) }) }

// sizeFile is the file's length, 0 if fstat fails.
func sizeFile(f fileH) int64 {
	st, _ := fstat(f)
	return st.Size
}

// closeH closes a directory or file descriptor.
func closeH(fd int) { syscall.Close(fd) }

// asFile hands f to package os, for the calls that are not on any hot
// path; closing the *os.File closes f.
func asFile(f fileH, name string) *os.File { return os.NewFile(uintptr(f), name) }
