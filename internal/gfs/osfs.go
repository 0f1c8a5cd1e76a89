package gfs

import (
	"container/list"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Native is the thread handle for real goroutines using the OS backend.
// Each goroutine should use its own Native: the PRNG is not locked. It
// carries no trace span; a traced request runs on the daemon's
// per-request handle (mailboatd), the one trace.Carrier.
type Native struct {
	rng *rand.Rand
}

// NewNative returns a native thread handle seeded from seed.
func NewNative(seed int64) *Native {
	return &Native{rng: rand.New(rand.NewSource(seed))}
}

// RandUint64 implements T.
func (n *Native) RandUint64(bound uint64) uint64 {
	if bound == 0 {
		panic("gfs: RandUint64 with zero bound")
	}
	return uint64(n.rng.Int63n(int64(bound)))
}

// nativeLock adapts sync.Mutex to Lock.
type nativeLock struct{ mu sync.Mutex }

func (l *nativeLock) Acquire(T) { l.mu.Lock() }
func (l *nativeLock) Release(T) { l.mu.Unlock() }

// OS is the real-file-system backend. It holds one raw descriptor per
// cached directory and performs every call as one system call relative
// to it (openat, unlinkat, linkat, fsync of the held descriptor) — the
// Goose library's directory-descriptor caching that §9.3 measures. The
// system calls themselves are the build-tagged primitives of
// osfs_linux.go (osfs_other.go: the same primitives over os.Root).
//
// Containment is explicit: a file name must be a single path component
// (validName) and is never followed as a symlink, so no call can reach
// outside the directory it names.
//
// The cache is bounded: a million-mailbox layout is a million
// directories, and one kernel descriptor per directory would exhaust
// RLIMIT_NOFILE long before that. Layouts at or under the handle
// budget are opened eagerly at boot and never evicted (the original
// behavior, and the fast path every small deployment takes); larger
// layouts open handles lazily and evict least-recently-used ones, so
// a zipfian workload's hot mailboxes keep their descriptors while the
// cold tail is reopened on touch. Handles are refcounted so an
// eviction or CloseAll never closes a descriptor out from under an op
// in flight.
type OS struct {
	path string

	mu    sync.Mutex
	max   int // handle budget; eviction only when the layout exceeds it
	known map[string]bool
	roots map[string]*osRoot
	lru   *list.List // of *osRoot; front = most recently used
}

// osRoot is one cached directory descriptor.
type osRoot struct {
	o      *OS
	dir    string
	d      dirH
	listMu sync.Mutex // List's getdents offset on d; no other call uses it
	refs   int
	el     *list.Element
	gone   bool // evicted/closed: the last unpin closes d
}

// osFD is an open file and its read window: win is what its last pread
// returned, read at off, and asked what that pread asked for (0: none
// yet). Close resets f to noFile and drops the window, so an op on a
// stale FD reports failure: it can neither act on a descriptor number
// the kernel has since handed to another file nor serve bytes it read
// before. Like the model's, a descriptor is used by one thread at a time.
type osFD struct {
	f     fileH
	win   []byte
	off   uint64
	asked uint64
}

// readWindowMax caps how far a descriptor's read window grows.
const readWindowMax = 64 << 10

// DefaultMaxDirHandles is the stock directory-handle budget: large
// enough that every pre-harness layout (hundreds of user dirs) stays
// fully cached, small enough that two million-mailbox stores in one
// process fit comfortably under common RLIMIT_NOFILE settings.
const DefaultMaxDirHandles = 4096

// NewOS prepares (creating if necessary) the fixed directory layout
// under path with the default handle budget.
func NewOS(path string, dirs []string) (*OS, error) {
	return NewOSLimited(path, dirs, DefaultMaxDirHandles)
}

// NewOSLimited is NewOS with an explicit directory-handle budget
// (min 1). Layouts within the budget behave exactly like the
// unbounded original.
func NewOSLimited(path string, dirs []string, maxHandles int) (*OS, error) {
	o := &OS{
		path:  path,
		max:   max(maxHandles, 1),
		known: make(map[string]bool, len(dirs)),
		roots: make(map[string]*osRoot),
		lru:   list.New(),
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("gfs: preparing root: %w", err)
	}
	eager := len(dirs) <= o.max
	for _, d := range dirs {
		full := filepath.Join(path, d)
		if err := os.MkdirAll(full, 0o755); err != nil {
			return nil, fmt.Errorf("gfs: preparing %s: %w", d, err)
		}
		o.known[d] = true
		if eager {
			h, err := openDir(full)
			if err != nil {
				o.CloseAll()
				return nil, fmt.Errorf("gfs: opening %s: %w", d, err)
			}
			o.cache(d, h)
		}
	}
	return o, nil
}

// CloseAll releases the cached directory handles; handles held by ops
// still in flight are closed when their op releases them.
func (o *OS) CloseAll() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, e := range o.roots {
		o.drop(e)
	}
	o.lru.Init()
}

// Path returns the backing directory.
func (o *OS) Path() string { return o.path }

// cache enters dir's freshly opened descriptor at the front of the LRU.
func (o *OS) cache(dir string, d dirH) *osRoot {
	e := &osRoot{o: o, dir: dir, d: d}
	e.el = o.lru.PushFront(e)
	o.roots[dir] = e
	return e
}

// drop removes e from the cache (the caller fixes up the LRU list); its
// descriptor closes now, or at the last unpin if an op still holds it.
func (o *OS) drop(e *osRoot) {
	delete(o.roots, e.dir)
	e.gone = true
	if e.refs == 0 {
		closeH(e.d)
	}
}

// pin returns dir's cache entry, touched in the LRU and pinned against
// eviction; the caller must unpin it. On a miss it returns nil unless
// open is set: then it opens the directory, evicting the least recently
// used entries beyond the budget, and returns nil only if the directory
// cannot be (re)opened — possible only in the lazy regime, and the op
// reports failure like any other I/O error. Unknown directories panic
// (the layout is fixed).
func (o *OS) pin(dir string, open bool) *osRoot {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.roots[dir]
	if ok {
		o.lru.MoveToFront(e.el)
	} else {
		if !o.known[dir] {
			panic(fmt.Sprintf("gfs: unknown directory %q (fixed layout)", dir))
		}
		if !open {
			return nil
		}
		d, err := openDir(filepath.Join(o.path, dir))
		if err != nil {
			return nil
		}
		e = o.cache(dir, d)
		for len(o.roots) > o.max {
			o.drop(o.lru.Remove(o.lru.Back()).(*osRoot))
		}
	}
	e.refs++
	return e
}

// unpin releases a pin; unpinning the nil of a failed pin is a no-op, so
// a caller can defer it before looking at what pin returned.
func (e *osRoot) unpin() {
	if e == nil {
		return
	}
	e.o.mu.Lock()
	defer e.o.mu.Unlock()
	e.refs--
	if e.gone && e.refs == 0 {
		closeH(e.d)
	}
}

// validName reports whether name is a single path component. Together
// with the primitives never following a symlink at name, this is what
// keeps every call inside the directory it was given.
func validName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, "/\x00")
}

// openIn opens name relative to dir's descriptor.
func (o *OS) openIn(dir, name string, flag int) (FD, bool) {
	e := o.pin(dir, true)
	defer e.unpin()
	if e == nil || !validName(name) {
		return nil, false
	}
	f, err := openAt(e.d, name, flag)
	if err != nil {
		return nil, false
	}
	return &osFD{f: f}, true
}

// NewLock implements System with a sync.Mutex.
func (o *OS) NewLock(T, string) Lock { return &nativeLock{} }

// Create implements System (O_CREATE|O_EXCL, append mode).
func (o *OS) Create(_ T, dir, name string) (FD, bool) {
	return o.openIn(dir, name, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND)
}

// Open implements System (read mode).
func (o *OS) Open(_ T, dir, name string) (FD, bool) {
	return o.openIn(dir, name, os.O_RDONLY)
}

// Append implements System. A short write (n < len(data)) counts as
// failure — the partial data may be on disk, but the caller must treat
// the append as not having happened and abandon the file, exactly like
// an EIO/ENOSPC error. Appending to a read-mode descriptor (reachable
// only via a faulted or buggy path) is refused by the kernel (EBADF)
// and reports failure instead of downing the server with a panic; the
// model backend still flags it as UB.
func (o *OS) Append(_ T, fd FD, data []byte) bool {
	if len(data) > MaxAppend {
		panic("gfs: append exceeds atomic limit")
	}
	n, err := writeFile(fd.(*osFD).f, data)
	return err == nil && n == len(data)
}

// Close implements System; closing twice is harmless.
func (o *OS) Close(_ T, fd FD) {
	f := fd.(*osFD)
	closeH(f.f)
	*f = osFD{f: noFile}
}

// ReadAt implements System; a failed read returns no bytes. A range inside
// the descriptor's read window costs no system call: the API never changes
// a byte once it is in a file (DESIGN.md "OS backend"). The window grows
// only after a read comes back full, so a one-chunk message costs one
// pread as before, and end of file is never cached: a read at or past it
// probes the file again, one byte into a stack buffer.
func (o *OS) ReadAt(_ T, fd FD, off, n uint64) []byte {
	f := fd.(*osFD)
	if n == 0 {
		return nil
	}
	end := f.off + uint64(len(f.win))
	if off >= f.off && off < end && n <= end-off {
		i := off - f.off
		return f.win[i : i+n : i+n]
	}
	ask := n
	switch full := uint64(len(f.win)) == f.asked; {
	case f.asked > 0 && full && off >= f.off && off <= end:
		ask = max(n, min(8*f.asked, readWindowMax)) // a full read, continued
	case f.asked > 0 && !full && off >= end:
		var probe [1]byte
		if preadFile(f.f, probe[:], int64(off)) == 0 {
			return nil
		}
	}
	if ask > readWindowMax { // a huge n: read the rest of the file, no more
		size := uint64(sizeFile(f.f))
		if off >= size {
			return nil
		}
		ask = min(ask, size-off)
	}
	buf := make([]byte, ask)
	got := uint64(preadFile(f.f, buf, int64(off)))
	f.win, f.off, f.asked = buf[:got], off, ask
	got = min(got, n)
	return buf[:got:got]
}

// Size implements System; 0 if the descriptor cannot be examined.
func (o *OS) Size(_ T, fd FD) uint64 {
	return uint64(sizeFile(fd.(*osFD).f))
}

// Sync implements System via fsync. A failed fsync reports false: the
// kernel may have dropped the dirty pages (fsyncgate), so the caller
// must not treat the data as durable nor retry the sync on this
// descriptor.
func (o *OS) Sync(_ T, fd FD) bool {
	return syncFile(fd.(*osFD).f) == nil
}

// SyncDir implements System by fsyncing the directory itself, which is
// what ext4-style file systems require before a create, link, or unlink
// in it may be assumed durable. The fsync goes to the descriptor the
// cache already holds: fsync flushes the inode, not the descriptor, so
// a long-held descriptor is the same barrier as a freshly opened one —
// unless the directory was unlinked from under the store, which the
// primitive reports as failure. A failed open or fsync reports false
// (not a barrier), and retrying a directory fsync is sound — metadata
// goes through the journal, unlike the fsyncgate'd data pages behind a
// failed file Sync.
func (o *OS) SyncDir(_ T, dir string) bool {
	e := o.pin(dir, true)
	defer e.unpin()
	return e != nil && syncDir(e.d) == nil
}

// Delete implements System.
func (o *OS) Delete(_ T, dir, name string) bool {
	e := o.pin(dir, true)
	defer e.unpin()
	return e != nil && validName(name) && unlinkAt(e.d, name) == nil
}

// Link implements System: one linkat between the two directories'
// descriptors; EEXIST (or any failure) reports false.
func (o *OS) Link(_ T, oldDir, oldName, newDir, newName string) bool {
	from := o.pin(oldDir, true)
	defer from.unpin()
	to := o.pin(newDir, true)
	defer to.unpin()
	return from != nil && to != nil && validName(oldName) && validName(newName) &&
		linkAt(from.d, oldName, to.d, newName) == nil
}

// CorruptFile implements Corrupter on the real file system: it mangles
// the named file's stored bytes in place (read-write open under the
// cached directory descriptor), for corruption drills against a live
// server. Absent and empty files report false.
func (o *OS) CorruptFile(_ T, dir, name string, mode CorruptMode) bool {
	fd, ok := o.openIn(dir, name, os.O_RDWR)
	if !ok {
		return false
	}
	f := asFile(fd.(*osFD).f, name)
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return false
	}
	size := st.Size()
	if mode == CorruptTruncate {
		return f.Truncate(size-1) == nil
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], size/2); err != nil {
		return false
	}
	b[0] ^= 0x01
	_, err = f.WriteAt(b[:], size/2)
	return err == nil
}

// List implements System, sorted like the model. A cached directory is
// read through the descriptor the cache holds, one List at a time. On a
// handle-cache miss it reads the directory by path instead of caching a
// descriptor: the big List consumers are one-shot full-population sweeps
// (recovery, resync, scrub, audits), and letting a 100k-mailbox sweep
// stream through the LRU would churn the hot mailboxes' handles out of
// the cache.
func (o *OS) List(_ T, dir string) []string {
	var names []string
	if e := o.pin(dir, false); e != nil {
		e.listMu.Lock()
		names = listHeld(e.d)
		e.listMu.Unlock()
		e.unpin()
	} else {
		names = listDir(filepath.Join(o.path, dir))
	}
	slices.Sort(names)
	return names
}
