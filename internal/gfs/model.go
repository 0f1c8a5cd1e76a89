package gfs

import (
	"sort"

	"repro/internal/machine"
)

// Model is the modeled file-system backend. It registers itself as a
// durable device on the machine: directories, directory entries, and
// inode contents survive crashes; open file descriptors do not.
//
// The directory layout is fixed at creation (§6.2: "a subdirectory of
// the operating system's file system with a fixed layout since
// directories cannot be renamed or created"). Operating on an unknown
// directory is undefined behaviour.
type Model struct {
	m      *machine.Machine
	dirs   map[string]map[string]inodeID
	inodes map[inodeID][]byte
	next   inodeID
	open   int

	// buffered enables deferred durability (§6.2's future-work
	// extension): appends beyond an inode's synced prefix are lost at a
	// crash unless Sync is called. Directory operations stay atomic and
	// durable (journaled-metadata style).
	buffered bool
	synced   map[inodeID]int
	// pending records, per inode, the length after each append beyond
	// the synced prefix. At a crash any prefix of the unsynced tail up
	// to an append boundary may survive (torn appends); individual
	// appends stay atomic. Cleared by Sync and at every crash.
	pending map[inodeID][]int

	// writeback (implies buffered) extends deferred durability to
	// directory operations: creates, links, and deletes are applied to
	// the volatile dirs view immediately but only reach the durable
	// view when SyncDir flushes them (or when a crash happens to keep
	// them). Per directory the pending operations form an ordered log,
	// and a crash keeps some prefix of it — ext4-ordered-journaling
	// style, so un-synced metadata is lost newest-first with no holes.
	writeback   bool
	durableDirs map[string]map[string]inodeID
	dirPending  map[string][]dirOp

	// obj is the first of the model's footprint names (see touchDir).
	obj machine.Obj

	// Scratch space, not state: the sorted layout (see layout), Crash's
	// reach (see reachable) and undo log (see Save), and AppendDurable's
	// inode renaming and entry names.
	reach    []bool
	undo     []change
	dirNames []string
	canon    map[inodeID]uint64
	names    []string

	// capacity, when nonzero, bounds the modeled disk: Create, Append
	// and Link fail (ENOSPC-style false, never a model fault) once the
	// space they would consume exceeds it. Space is charged per
	// directory entry (SpaceEntryCost) plus the contents of every
	// reachable inode, so Delete credits space back the moment the last
	// entry goes — the accounting side of the fault.NoSpace latch.
	capacity uint64
}

// dirOp is one pending directory mutation under writeback: an entry
// added (create or link) or removed (delete).
type dirOp struct {
	add  bool
	name string
	ino  inodeID // meaningful only for add
}

type inodeID int

type modelFD struct {
	version   uint64
	ino       inodeID
	append_   bool
	closed    bool
	dir, name string
}

// path renders the descriptor's dir/name. Only failure messages and
// trace lines read it, so an untraced execution never builds it.
func (f *modelFD) path() string { return f.dir + "/" + f.name }

// NewModel creates a modeled file system with the given (fixed) set of
// directories and registers it on m. Durability is strict: every append
// is durable immediately (the paper's process-crash model).
func NewModel(m *machine.Machine, dirs []string) *Model {
	fs := &Model{
		m:      m,
		dirs:   make(map[string]map[string]inodeID, len(dirs)),
		inodes: map[inodeID][]byte{},
		next:   1,
		obj:    m.Objects(1 << 32),
	}
	for _, d := range dirs {
		fs.dirs[d] = map[string]inodeID{}
	}
	m.RegisterDevice(fs)
	return fs
}

// NewBufferedModel creates a modeled file system with deferred
// durability: a crash truncates every inode back to its last-synced
// prefix, modeling whole-machine crashes with a buffer cache (the
// extension §6.2 describes as future work). Code that is crash-safe
// here must Sync file contents before publishing them.
func NewBufferedModel(m *machine.Machine, dirs []string) *Model {
	fs := NewModel(m, dirs)
	fs.buffered = true
	fs.synced = map[inodeID]int{}
	fs.pending = map[inodeID][]int{}
	return fs
}

// NewWritebackModel creates a modeled file system with full writeback
// semantics: file data behaves as under NewBufferedModel, and directory
// operations (create, link, delete) additionally live in a volatile
// cache until SyncDir makes them durable. At a crash each directory
// keeps some prefix of its un-synced operation log — which prefix is a
// crash-time nondeterministic choice (tag "writeback") enumerated by
// the model checker. Code that is crash-safe here must Sync file
// contents *and* SyncDir the publishing directory before acking.
func NewWritebackModel(m *machine.Machine, dirs []string) *Model {
	fs := NewBufferedModel(m, dirs)
	fs.writeback = true
	fs.durableDirs = map[string]map[string]inodeID{}
	fs.dirPending = map[string][]dirOp{}
	for d := range fs.dirs {
		fs.durableDirs[d] = map[string]inodeID{}
	}
	return fs
}

// SpaceEntryCost is the modeled metadata cost, in bytes, of one
// directory entry — what Create and Link charge against the capacity
// budget before any data is appended.
const SpaceEntryCost = 16

// Footprints (DESIGN.md "Source sets and wakeup trees"): a directory's entries are one
// object, an inode's contents another, and the space SetCapacity bounds
// a third, which every call that spends or frees space writes. Inode
// numbers are not declared: two Creates commute up to the numbers they
// hand out, which AppendDurable's canonical renumbering ignores, as the
// open-descriptor count ignores the order of its increments.
func (fs *Model) touchDir(dir string, md machine.Mode) {
	h := uint32(2166136261)
	for i := 0; i < len(dir); i++ {
		h = (h ^ uint32(dir[i])) * 16777619
	}
	fs.m.Touch(fs.obj+1<<31+machine.Obj(h>>1), md)
}

func (fs *Model) touchInode(ino inodeID, md machine.Mode) {
	fs.m.Touch(fs.obj+machine.Obj(ino), md)
}

// touchSpace declares a call that spends or frees space, when there is
// a capacity to spend it against.
func (fs *Model) touchSpace() {
	if fs.capacity != 0 {
		fs.m.Touch(fs.obj, machine.Write) // inode numbers start at 1
	}
}

// SetCapacity bounds the modeled disk at the given byte budget
// (0 = unlimited, the default). A scenario-setup constant, not durable
// state: it is excluded from fingerprints like the rest of the
// configuration.
func (fs *Model) SetCapacity(bytes uint64) { fs.capacity = bytes }

// SpaceUsed returns the bytes currently charged against the capacity:
// SpaceEntryCost per directory entry plus the contents of every inode
// reachable from at least one entry. Deleting an entry credits its
// cost (and, for the last link, the inode's bytes) back immediately.
func (fs *Model) SpaceUsed() uint64 {
	var used uint64
	counted := map[inodeID]bool{}
	for _, d := range fs.dirs {
		for _, ino := range d {
			used += SpaceEntryCost
			if !counted[ino] {
				counted[ino] = true
				used += uint64(len(fs.inodes[ino]))
			}
		}
	}
	return used
}

// spaceFor reports whether extra more bytes fit under the capacity.
func (fs *Model) spaceFor(extra uint64) bool {
	return fs.capacity == 0 || fs.SpaceUsed()+extra <= fs.capacity
}

// Crash implements machine.Device: file data is durable, descriptors
// are volatile (they are version-stamped, so the version bump kills
// them). An inode no directory entry reaches dies with its last
// descriptor, so the crash drops it — under writeback after the
// directories have settled. Under buffered durability the crash then
// keeps, for every surviving inode with an unsynced tail, some prefix of
// that tail ending at an append boundary — which prefix is a crash-time
// nondeterministic choice (tag "torn"), enumerated by the model checker
// via machine.CrashChoose. Option 0 is the pre-torn behavior (only the
// synced prefix survives), so chooserless unit runs are unchanged.
//
// The walk of the directories that finds the unreachable inodes is
// skipped when no inode is dirty and there are no fewer entries than
// inodes: a strict model's crash in a settled store, as in the mail
// canary's recovery, then costs a count per directory rather than a
// visit per entry, and so does each crash state the checker evaluates
// in place while a delivery holds a second link. The count misses
// unreachable inodes only when second entries of linked inodes hide
// them. Those are clean and no descriptor reaches them again, so keeping
// them changes no crash choice, fingerprint or answer; they go at the
// first crash whose count shows them.
//
// Crash notes in fs.undo, as it was, everything it changes in place,
// which is what lets Save put the pre-crash state back.
func (fs *Model) Crash() {
	fs.undo = fs.undo[:0]
	fs.open = 0
	if fs.writeback {
		fs.crashDirs()
	}
	if fs.mayHoldGarbage() {
		fs.crashInodes(fs.reachable())
	}
	if fs.buffered {
		fs.pending = map[inodeID][]int{}
	}
}

// crashInodes drops the inodes reach does not mark, and tears each
// marked one to the prefix the crash keeps of its unsynced tail, in
// inode order.
func (fs *Model) crashInodes(reach []bool) {
	for ino, data := range fs.inodes {
		if !reach[ino] {
			fs.noteInode(ino, data)
			delete(fs.inodes, ino)
			delete(fs.synced, ino)
		}
	}
	if !fs.buffered {
		return
	}
	for i, live := range reach {
		ino := inodeID(i)
		if !live {
			continue
		}
		data, n := fs.inodes[ino], fs.synced[ino]
		if n >= len(data) {
			continue
		}
		var cuts []int
		for _, b := range fs.pending[ino] {
			if b > n && b <= len(data) {
				cuts = append(cuts, b)
			}
		}
		// Whatever survives the crash is on disk for good: it is the
		// durable prefix from here on.
		if k := fs.m.CrashChoose(len(cuts)+1, "torn"); k > 0 {
			n = cuts[k-1]
		}
		fs.noteInode(ino, data)
		fs.inodes[ino], fs.synced[ino] = data[:n], n
	}
}

// change is one thing a crash changed in place, as it was: a
// directory's two views, or an inode's contents and synced length.
type change struct {
	dir          string
	vol, durable map[string]inodeID
	ino          inodeID
	data         []byte
	n            int
	synced       bool
}

func (fs *Model) noteInode(ino inodeID, data []byte) {
	n, synced := fs.synced[ino]
	fs.undo = append(fs.undo, change{ino: ino, data: data, n: n, synced: synced})
}

// mayHoldGarbage reports whether Crash walks the directories: an inode
// is dirty, or fewer entries than inodes show an unreachable one.
func (fs *Model) mayHoldGarbage() bool {
	if fs.buffered {
		for ino, data := range fs.inodes {
			if fs.synced[ino] < len(data) {
				return true
			}
		}
	}
	entries := 0
	for _, d := range fs.dirs {
		entries += len(d)
	}
	return entries < len(fs.inodes)
}

// reachable marks the inodes some directory entry reaches, in a slice
// indexed by inode number that each crash reuses.
func (fs *Model) reachable() []bool {
	if cap(fs.reach) < int(fs.next) {
		fs.reach = make([]bool, fs.next)
	}
	reach := fs.reach[:fs.next]
	clear(reach)
	for _, d := range fs.dirs {
		for _, ino := range d {
			reach[ino] = true
		}
	}
	return reach
}

// Save implements machine.Device: the restore undoes what the crash
// noted, newest first, and puts back the fields Crash replaces.
func (fs *Model) Save() (restore func()) {
	open, pending, dirPending := fs.open, fs.pending, fs.dirPending
	return func() {
		for i := len(fs.undo) - 1; i >= 0; i-- {
			c := &fs.undo[i]
			if c.dir != "" {
				fs.dirs[c.dir], fs.durableDirs[c.dir] = c.vol, c.durable
				continue
			}
			fs.inodes[c.ino] = c.data
			if c.synced {
				fs.synced[c.ino] = c.n
			} else {
				delete(fs.synced, c.ino)
			}
		}
		fs.undo = fs.undo[:0]
		fs.open, fs.pending, fs.dirPending = open, pending, dirPending
	}
}

// crashDirs resolves directory-metadata nondeterminism at a crash
// under writeback: for every directory with un-synced operations, in
// name order, some prefix of its pending log survives (tag "writeback";
// option 0 rolls the directory back to its last SyncDir, the last option
// keeps every pending operation — mirroring the "torn" convention so
// chooserless unit runs take maximal loss deterministically). The
// surviving view becomes the durable view and the volatile one; Crash
// then drops the inodes it no longer reaches. A directory with no
// pending operation already shows its durable view and is left as it
// is.
func (fs *Model) crashDirs() {
	dirty := false
	for _, d := range fs.layout() {
		ops := fs.dirPending[d]
		if len(ops) == 0 {
			continue
		}
		k := fs.m.CrashChoose(len(ops)+1, "writeback")
		durable := cloneDir(fs.durableDirs[d])
		for _, op := range ops[:k] {
			if op.add {
				durable[op.name] = op.ino
			} else {
				delete(durable, op.name)
			}
		}
		fs.undo = append(fs.undo, change{dir: d, vol: fs.dirs[d], durable: fs.durableDirs[d]})
		fs.durableDirs[d], fs.dirs[d] = durable, cloneDir(durable)
		dirty = true
	}
	if dirty {
		fs.dirPending = map[string][]dirOp{}
	}
}

// layout returns the directory names in order. The layout is fixed at
// creation, so it is sorted once.
func (fs *Model) layout() []string {
	if fs.dirNames == nil {
		for d := range fs.dirs {
			fs.dirNames = append(fs.dirNames, d)
		}
		sort.Strings(fs.dirNames)
	}
	return fs.dirNames
}

func cloneDir(entries map[string]inodeID) map[string]inodeID {
	out := make(map[string]inodeID, len(entries))
	for name, ino := range entries {
		out[name] = ino
	}
	return out
}

// OpenFDs returns the number of descriptors opened and not yet closed
// in the current version. Perennial's proofs do not cover resource
// leaks (§9.5 found one by other means); tests can assert on this
// counter instead.
func (fs *Model) OpenFDs() int { return fs.open }

func (fs *Model) thread(t T) *machine.T {
	mt, ok := t.(*machine.T)
	if !ok {
		panic("gfs.Model used with a non-modeled thread")
	}
	if mt.Machine() != fs.m {
		mt.Failf("gfs.Model used from a different machine")
	}
	return mt
}

func (fs *Model) dir(mt *machine.T, op, dir string) map[string]inodeID {
	d, ok := fs.dirs[dir]
	if !ok {
		mt.Failf("fs.%s on unknown directory %q (fixed layout)", op, dir)
	}
	return d
}

func (fs *Model) fd(mt *machine.T, op string, fd FD, wantAppend bool) *modelFD {
	f, ok := fd.(*modelFD)
	if !ok || f == nil {
		mt.Failf("fs.%s on a non-file descriptor", op)
		return nil
	}
	if f.version != fs.m.Version() {
		mt.Failf("fs.%s on file descriptor %q from version %d (lost at crash, now %d)",
			op, f.path(), f.version, fs.m.Version())
	}
	if f.closed {
		mt.Failf("fs.%s on closed descriptor %q", op, f.path())
	}
	if f.append_ != wantAppend {
		if wantAppend {
			mt.Failf("fs.%s needs an append-mode descriptor, %q is read-mode", op, f.path())
		} else {
			mt.Failf("fs.%s needs a read-mode descriptor, %q is append-mode", op, f.path())
		}
	}
	return f
}

// NewLock implements System using a modeled machine lock.
func (fs *Model) NewLock(t T, name string) Lock {
	mt := fs.thread(t)
	return &modelLock{l: machine.NewLock(mt, name)}
}

type modelLock struct{ l *machine.Lock }

func (ml *modelLock) Acquire(t T) { ml.l.Acquire(t.(*machine.T)) }
func (ml *modelLock) Release(t T) { ml.l.Release(t.(*machine.T)) }

// Create implements System.
func (fs *Model) Create(t T, dir, name string) (FD, bool) {
	mt := fs.thread(t)
	mt.StepDeclared("fs.create")
	fs.touchDir(dir, machine.Write)
	fs.touchSpace()
	d := fs.dir(mt, "create", dir)
	if _, exists := d[name]; exists {
		if mt.Tracing() {
			mt.Tracef("fs.create %s/%s -> exists", dir, name)
		}
		return nil, false
	}
	if !fs.spaceFor(SpaceEntryCost) {
		if mt.Tracing() {
			mt.Tracef("fs.create %s/%s -> ENOSPC (%d used of %d)", dir, name, fs.SpaceUsed(), fs.capacity)
		}
		return nil, false
	}
	ino := fs.next
	fs.next++
	fs.inodes[ino] = nil
	d[name] = ino
	if fs.writeback {
		fs.dirPending[dir] = append(fs.dirPending[dir], dirOp{add: true, name: name, ino: ino})
	}
	fs.open++
	if mt.Tracing() {
		mt.Tracef("fs.create %s/%s -> ino %d", dir, name, ino)
	}
	return &modelFD{version: fs.m.Version(), ino: ino, append_: true, dir: dir, name: name}, true
}

// Open implements System.
func (fs *Model) Open(t T, dir, name string) (FD, bool) {
	mt := fs.thread(t)
	mt.StepDeclared("fs.open")
	fs.touchDir(dir, machine.Read)
	d := fs.dir(mt, "open", dir)
	ino, ok := d[name]
	if !ok {
		if mt.Tracing() {
			mt.Tracef("fs.open %s/%s -> absent", dir, name)
		}
		return nil, false
	}
	fs.open++
	if mt.Tracing() {
		mt.Tracef("fs.open %s/%s -> ino %d", dir, name, ino)
	}
	return &modelFD{version: fs.m.Version(), ino: ino, dir: dir, name: name}, true
}

// Append implements System.
func (fs *Model) Append(t T, fd FD, data []byte) bool {
	mt := fs.thread(t)
	mt.StepDeclared("fs.append")
	f := fs.fd(mt, "append", fd, true)
	fs.touchInode(f.ino, machine.Write)
	fs.touchSpace()
	if len(data) > MaxAppend {
		mt.Failf("fs.append of %d bytes exceeds the %d-byte atomic limit", len(data), MaxAppend)
	}
	if !fs.spaceFor(uint64(len(data))) {
		if mt.Tracing() {
			mt.Tracef("fs.append %s -> ENOSPC (%d used of %d)", f.path(), fs.SpaceUsed(), fs.capacity)
		}
		return false
	}
	fs.inodes[f.ino] = append(fs.inodes[f.ino], data...)
	if fs.buffered {
		fs.pending[f.ino] = append(fs.pending[f.ino], len(fs.inodes[f.ino]))
	}
	if mt.Tracing() {
		mt.Tracef("fs.append %s += %d bytes", f.path(), len(data))
	}
	return true
}

// Close implements System.
func (fs *Model) Close(t T, fd FD) {
	mt := fs.thread(t)
	mt.StepDeclared("fs.close")
	f, ok := fd.(*modelFD)
	if !ok || f == nil {
		mt.Failf("fs.close on a non-file descriptor")
		return
	}
	fs.touchInode(f.ino, machine.Write) // and with it the descriptor
	if f.closed {
		mt.Failf("fs.close on already-closed descriptor %q", f.path())
	}
	f.closed = true
	if f.version == fs.m.Version() {
		fs.open--
	}
}

// ReadAt implements System.
func (fs *Model) ReadAt(t T, fd FD, off, n uint64) []byte {
	mt := fs.thread(t)
	mt.StepDeclared("fs.readat")
	f := fs.fd(mt, "readat", fd, false)
	fs.touchInode(f.ino, machine.Read)
	data := fs.inodes[f.ino]
	if off >= uint64(len(data)) {
		return nil
	}
	if rest := uint64(len(data)) - off; n > rest {
		n = rest // also keeps off+n from wrapping
	}
	out := make([]byte, n)
	copy(out, data[off:])
	return out
}

// Size implements System.
func (fs *Model) Size(t T, fd FD) uint64 {
	mt := fs.thread(t)
	mt.StepDeclared("fs.size")
	f, ok := fd.(*modelFD)
	if !ok || f == nil {
		mt.Failf("fs.size on a non-file descriptor")
		return 0
	}
	fs.touchInode(f.ino, machine.Read)
	if f.version != fs.m.Version() || f.closed {
		mt.Failf("fs.size on dead descriptor %q", f.path())
	}
	return uint64(len(fs.inodes[f.ino]))
}

// Sync implements System: the inode's current contents become durable.
// The model's sync never fails (inject failures with Faulty).
func (fs *Model) Sync(t T, fd FD) bool {
	mt := fs.thread(t)
	mt.StepDeclared("fs.sync")
	f := fs.fd(mt, "sync", fd, true)
	fs.touchInode(f.ino, machine.Write)
	// A strict model's contents are durable as written: only a buffered
	// one keeps a synced prefix and pending append boundaries.
	if fs.buffered {
		fs.synced[f.ino] = len(fs.inodes[f.ino])
		delete(fs.pending, f.ino)
	}
	if mt.Tracing() {
		mt.Tracef("fs.sync %s @ %d bytes", f.path(), len(fs.inodes[f.ino]))
	}
	return true
}

// SyncDir implements System: under writeback the directory's pending
// operations become durable (its volatile view is the durable view from
// here on); under strict or merely buffered durability directory
// operations were never deferred, so this is a no-op. The model's
// directory sync never fails (inject failures with Faulty).
func (fs *Model) SyncDir(t T, dir string) bool {
	mt := fs.thread(t)
	mt.StepDeclared("fs.syncdir")
	fs.touchDir(dir, machine.Write)
	fs.dir(mt, "syncdir", dir)
	if fs.writeback {
		durable := map[string]inodeID{}
		for name, ino := range fs.dirs[dir] {
			durable[name] = ino
		}
		fs.durableDirs[dir] = durable
		delete(fs.dirPending, dir)
	}
	if mt.Tracing() {
		mt.Tracef("fs.syncdir %s", dir)
	}
	return true
}

// Delete implements System.
func (fs *Model) Delete(t T, dir, name string) bool {
	mt := fs.thread(t)
	mt.StepDeclared("fs.delete")
	fs.touchDir(dir, machine.Write)
	fs.touchSpace()
	d := fs.dir(mt, "delete", dir)
	if _, ok := d[name]; !ok {
		if mt.Tracing() {
			mt.Tracef("fs.delete %s/%s -> absent", dir, name)
		}
		return false
	}
	delete(d, name)
	if fs.writeback {
		fs.dirPending[dir] = append(fs.dirPending[dir], dirOp{name: name})
	}
	if mt.Tracing() {
		mt.Tracef("fs.delete %s/%s", dir, name)
	}
	return true
}

// Link implements System.
func (fs *Model) Link(t T, oldDir, oldName, newDir, newName string) bool {
	mt := fs.thread(t)
	mt.StepDeclared("fs.link")
	fs.touchDir(oldDir, machine.Read)
	fs.touchDir(newDir, machine.Write)
	fs.touchSpace()
	od := fs.dir(mt, "link", oldDir)
	nd := fs.dir(mt, "link", newDir)
	ino, ok := od[oldName]
	if !ok {
		mt.Failf("fs.link source %s/%s does not exist", oldDir, oldName)
		return false
	}
	if _, exists := nd[newName]; exists {
		if mt.Tracing() {
			mt.Tracef("fs.link %s/%s -> %s/%s: target exists", oldDir, oldName, newDir, newName)
		}
		return false
	}
	if !fs.spaceFor(SpaceEntryCost) {
		if mt.Tracing() {
			mt.Tracef("fs.link %s/%s -> %s/%s: ENOSPC (%d used of %d)", oldDir, oldName, newDir, newName, fs.SpaceUsed(), fs.capacity)
		}
		return false
	}
	nd[newName] = ino
	if fs.writeback {
		fs.dirPending[newDir] = append(fs.dirPending[newDir], dirOp{add: true, name: newName, ino: ino})
	}
	if mt.Tracing() {
		mt.Tracef("fs.link %s/%s -> %s/%s (ino %d)", oldDir, oldName, newDir, newName, ino)
	}
	return true
}

// List implements System. The listing is atomic and sorted, keeping the
// model deterministic for the explorer.
func (fs *Model) List(t T, dir string) []string {
	mt := fs.thread(t)
	mt.StepDeclared("fs.list")
	fs.touchDir(dir, machine.Read)
	d := fs.dir(mt, "list", dir)
	out := make([]string, 0, len(d))
	for name := range d {
		out = append(out, name)
	}
	sort.Strings(out)
	if mt.Tracing() {
		mt.Tracef("fs.list %s -> %d entries", dir, len(out))
	}
	return out
}

// CorruptFile implements Corrupter: it durably mangles the named
// file's bytes in place, modeling silent media corruption. The mutation
// edits the inode (shared by all hard links), not any descriptor, so it
// survives crashes and stays invisible to the System API until an
// integrity layer checks the bytes. Absent and empty files report false.
func (fs *Model) CorruptFile(t T, dir, name string, mode CorruptMode) bool {
	mt := fs.thread(t)
	mt.StepDeclared("fs.corrupt")
	fs.touchDir(dir, machine.Read)
	fs.touchSpace()
	d := fs.dir(mt, "corrupt", dir)
	ino, ok := d[name]
	if ok {
		fs.touchInode(ino, machine.Write)
	}
	if !ok || len(fs.inodes[ino]) == 0 {
		if mt.Tracing() {
			mt.Tracef("fs.corrupt %s/%s -> nothing to corrupt", dir, name)
		}
		return false
	}
	data := append([]byte{}, fs.inodes[ino]...)
	switch mode {
	case CorruptTruncate:
		data = data[:len(data)-1]
	default: // CorruptFlip
		data[len(data)/2] ^= 0x01
	}
	fs.inodes[ino] = data
	if fs.synced[ino] > len(data) {
		fs.synced[ino] = len(data)
	}
	if mt.Tracing() {
		mt.Tracef("fs.corrupt %s %s/%s (ino %d)", mode, dir, name, ino)
	}
	return true
}

// PeekDir returns dir's entries without a machine step, for harness
// invariant checks between eras.
func (fs *Model) PeekDir(dir string) map[string][]byte {
	out := map[string][]byte{}
	for name, ino := range fs.dirs[dir] {
		out[name] = append([]byte{}, fs.inodes[ino]...)
	}
	return out
}
