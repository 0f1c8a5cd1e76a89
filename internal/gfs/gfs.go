// Package gfs is the Goose file-system layer of §6.2: a small,
// POSIX-flavoured API — directories with a fixed layout, directory
// entries, file descriptors, and inodes — with two interchangeable
// backends:
//
//   - Model: a modeled file system attached to a machine.Machine, where
//     every operation is one atomic step and a crash keeps file data but
//     loses open file descriptors. This backend is what the model
//     checker explores; its capabilities correspond to the paper's four
//     file-system capability forms (dir ↦ names, (dir,name) ↦ inode,
//     fd ↦ₙ (inode, mode), inode ↦ bytes).
//
//   - OS: the real operating system's file system. Each call is one
//     system call relative to a cached raw directory descriptor (openat,
//     unlinkat, linkat, fsync of the held descriptor; on Linux — elsewhere
//     the same calls go through os.Root), reproducing the Goose library's
//     "lookups relative to a cached directory fd" optimization that §9.3
//     credits for part of Mailboat's speedup. A file name is a single
//     path component and is never followed as a symlink.
//
// A third, composable layer — Faulty — wraps either backend and
// deterministically injects transient faults (failed creates, links,
// deletes and appends, short reads, failed fsyncs, optional latency)
// from a seeded schedule or from the model checker's chooser, so the
// code above can be checked and soak-tested under combined crash +
// transient-fault interleavings.
//
// Code written against System (such as internal/mailboat) runs
// unchanged on both backends, which is this reproduction's analog of
// Goose source compiling with the Go toolchain while also having a model
// in Perennial.
package gfs

// T is the executing thread's handle: a *machine.T under the model
// backend, or a *Native for a real goroutine under the OS backend.
type T interface {
	// RandUint64 returns a nondeterministically chosen value in
	// [0, bound) — chooser-driven under the model, PRNG-driven natively.
	RandUint64(bound uint64) uint64
}

// FD is an open file descriptor, opaque to callers. Model FDs die at a
// crash; OS FDs die with the process, which is the same thing.
type FD any

// Lock is a mutual-exclusion lock: a modeled machine.Lock or a native
// sync.Mutex.
type Lock interface {
	Acquire(t T)
	Release(t T)
}

// MaxAppend is the largest single Append the model allows, matching the
// 4 KiB chunks Mailboat writes (§8.3); larger appends would not be
// atomic on a real file system.
const MaxAppend = 4096

// ReadChunk is the chunk size Pickup reads messages in; the §9.5
// infinite-loop bug involved messages larger than one chunk.
const ReadChunk = 512

// System is the Goose world: lock allocation plus the file-system API.
// All operations are atomic with respect to other threads (§6.2).
type System interface {
	// NewLock allocates a lock (volatile state).
	NewLock(t T, name string) Lock

	// Create atomically creates name in dir, failing (false) if it
	// already exists, and returns an append-mode descriptor. This is the
	// create(fname) of §8.3 whose failure/success drives spool-name
	// allocation.
	Create(t T, dir, name string) (FD, bool)

	// Open opens an existing file for reading; false if absent.
	Open(t T, dir, name string) (FD, bool)

	// Append appends data (at most MaxAppend bytes) to an append-mode
	// descriptor. Each call is one atomic durable write.
	Append(t T, fd FD, data []byte) bool

	// Close releases a descriptor.
	Close(t T, fd FD)

	// ReadAt reads up to n bytes at offset off from a read-mode
	// descriptor, returning fewer at end of file.
	ReadAt(t T, fd FD, off, n uint64) []byte

	// Size returns the file's current length.
	Size(t T, fd FD) uint64

	// Sync makes the file's current contents durable, reporting whether
	// it succeeded. On the default (strict) model and on process-crash
	// semantics it is a no-op; on the buffered model (deferred
	// durability, the §6.2 extension the paper leaves to future work)
	// unsynced appends are lost at a crash. A false return (a failed
	// fsync under the OS backend, or an injected fault under Faulty)
	// means the contents must NOT be treated as durable — and, per
	// fsyncgate semantics, must not be re-synced on the same
	// descriptor: abandon the file and start over.
	Sync(t T, fd FD) bool

	// SyncDir makes dir's entries durable, reporting whether it
	// succeeded. On the strict and buffered models directory operations
	// are durable the moment they happen, so SyncDir is a no-op; on the
	// writeback model (NewWritebackModel) creates, links, and deletes
	// live in a volatile cache until the directory is synced, and an
	// un-synced suffix of them is lost at a crash. On the OS backend it
	// fsyncs the directory, which is what ext4-style file systems
	// require before a rename/link/unlink may be assumed durable. A
	// false return (a failed fsync, or an injected FaultSync under
	// Faulty) means the directory's pending operations must NOT be
	// treated as durable: a failed SyncDir is never a barrier. Unlike a
	// failed file Sync (whose dirty data pages may be silently dropped —
	// fsyncgate), a failed directory sync may be retried: metadata goes
	// through the journal, and a later successful SyncDir of the same
	// directory is a real barrier.
	SyncDir(t T, dir string) bool

	// Delete unlinks name from dir; false if absent.
	Delete(t T, dir, name string) bool

	// Link atomically creates newName in newDir referring to oldName's
	// inode, failing (false) if newName exists. Deliver uses it to
	// publish spooled messages atomically (§8.2).
	Link(t T, oldDir, oldName, newDir, newName string) bool

	// List returns the names in dir, sorted.
	List(t T, dir string) []string
}
