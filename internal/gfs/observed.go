package gfs

import (
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fsOp is a System operation class Observed measures: the index of its
// metric handles, so a call site names a constant, not a label.
type fsOp uint8

const (
	opCreate fsOp = iota
	opOpen
	opAppend
	opClose
	opReadAt
	opSize
	opSync
	opSyncDir
	opDelete
	opLink
	opList
	numOps
)

// fsOps is each operation class's metric label.
var fsOps = [numOps]string{
	"create", "open", "append", "close", "readat",
	"size", "sync", "syncdir", "delete", "link", "list",
}

// FSMetrics is the file-system layer's slice of the observability
// surface: per-op-class call counters and latency histograms, plus
// per-class injected-fault counters fed by Faulty. One FSMetrics is
// shared by the whole backend chain (Observed counts every call,
// whether or not a Faulty layer below it injects). It is held by value,
// and its zero value, a checker run's, records nothing.
type FSMetrics struct {
	calls   [numOps]*obs.Counter
	latency [numOps]*obs.Histogram
	faults  [fault.NumClasses]*obs.Counter

	// gfs_sync_* family: durability-barrier accounting by target
	// (barrierFile, barrierDir), fed by Observed (so drills count what the
	// library actually asked for, including barriers that an injected
	// fault.Sync refused).
	syncs, syncFailures [2]*obs.Counter
}

// The gfs_sync_* targets: a file's Sync and a directory's SyncDir.
const (
	barrierFile = iota
	barrierDir
)

// NewFSMetrics registers the file-system metric families
// (gfs_ops_total, gfs_op_seconds, gfs_faults_injected_total, gfs_sync_*)
// in r.
func NewFSMetrics(r *obs.Registry) FSMetrics {
	var m FSMetrics
	for i, op := range fsOps {
		m.calls[i] = r.Counter("gfs_ops_total",
			"File-system operations by class.", "op", op)
		m.latency[i] = r.Histogram("gfs_op_seconds",
			"File-system operation latency by class.", obs.DefLatencyBuckets, "op", op)
	}
	for c := range fault.NumClasses {
		if c.Axis() == fault.Storage {
			m.faults[c] = r.Counter("gfs_faults_injected_total",
				"Transient faults injected by gfs.Faulty, by class.", "class", c.String())
		}
	}
	for target, label := range [2]string{barrierFile: "file", barrierDir: "dir"} {
		m.syncs[target] = r.Counter("gfs_sync_total",
			"Durability barriers issued (file Sync and directory SyncDir calls).", "target", label)
		m.syncFailures[target] = r.Counter("gfs_sync_failures_total",
			"Durability barriers that failed (and therefore are not barriers).", "target", label)
	}
	return m
}

// Observed is a metrics middleware over any System: it counts every
// call and times it into a per-op-class histogram, then forwards to the
// inner backend. Stack it outermost — above Faulty — so injected faults
// and retries are measured exactly as the caller experienced them.
//
// When the thread handle carries a trace span (trace.Carrier), the
// mutating and barrier ops also open leaf spans, attributing a
// request's latency to individual file-system calls. Close, Size, and
// ReadAt stay span-free on purpose: a chunked pickup read would bury
// the timeline under hundreds of identical leaves; read time shows up
// as the mailboat-level read stage instead.
//
// Timing uses the wall clock. That is meaningful for the OS backend
// (which is what production wires up); under the modeled backend the
// durations are merely the checker's own processing time, so scenarios
// normally run without an Observed layer.
type Observed struct {
	inner System
	m     FSMetrics
}

// NewObserved wraps inner so every call is counted and timed into m.
func NewObserved(inner System, m FSMetrics) *Observed {
	return &Observed{inner: inner, m: m}
}

// done counts one completed call of class op and times it from start.
func (o *Observed) done(op fsOp, start time.Time) {
	o.m.calls[op].Inc()
	o.m.latency[op].ObserveSince(start)
}

// barrier counts one durability barrier on target and its outcome.
func (o *Observed) barrier(target int, ok bool) {
	o.m.syncs[target].Inc()
	if !ok {
		o.m.syncFailures[target].Inc()
	}
}

// Inner returns the wrapped backend.
func (o *Observed) Inner() System { return o.inner }

// NewLock implements System (not measured: lock allocation is volatile
// memory, not an I/O class).
func (o *Observed) NewLock(t T, name string) Lock { return o.inner.NewLock(t, name) }

// Create implements System.
func (o *Observed) Create(t T, dir, name string) (FD, bool) {
	sp := trace.Enter(t, "gfs.create")
	start := time.Now()
	fd, ok := o.inner.Create(t, dir, name)
	o.done(opCreate, start)
	trace.Exit(t, sp)
	return fd, ok
}

// Open implements System.
func (o *Observed) Open(t T, dir, name string) (FD, bool) {
	sp := trace.Enter(t, "gfs.open")
	start := time.Now()
	fd, ok := o.inner.Open(t, dir, name)
	o.done(opOpen, start)
	trace.Exit(t, sp)
	return fd, ok
}

// Append implements System.
func (o *Observed) Append(t T, fd FD, data []byte) bool {
	sp := trace.Enter(t, "gfs.append")
	start := time.Now()
	ok := o.inner.Append(t, fd, data)
	o.done(opAppend, start)
	trace.Exit(t, sp)
	return ok
}

// Close implements System.
func (o *Observed) Close(t T, fd FD) {
	start := time.Now()
	o.inner.Close(t, fd)
	o.done(opClose, start)
}

// ReadAt implements System.
func (o *Observed) ReadAt(t T, fd FD, off, n uint64) []byte {
	start := time.Now()
	data := o.inner.ReadAt(t, fd, off, n)
	o.done(opReadAt, start)
	return data
}

// Size implements System.
func (o *Observed) Size(t T, fd FD) uint64 {
	start := time.Now()
	n := o.inner.Size(t, fd)
	o.done(opSize, start)
	return n
}

// Sync implements System.
func (o *Observed) Sync(t T, fd FD) bool {
	sp := trace.Enter(t, "gfs.sync")
	start := time.Now()
	ok := o.inner.Sync(t, fd)
	o.done(opSync, start)
	o.barrier(barrierFile, ok)
	trace.Exit(t, sp)
	return ok
}

// SyncDir implements System.
func (o *Observed) SyncDir(t T, dir string) bool {
	sp := trace.Enter(t, "gfs.syncdir")
	start := time.Now()
	ok := o.inner.SyncDir(t, dir)
	o.done(opSyncDir, start)
	o.barrier(barrierDir, ok)
	trace.Exit(t, sp)
	return ok
}

// Delete implements System.
func (o *Observed) Delete(t T, dir, name string) bool {
	sp := trace.Enter(t, "gfs.delete")
	start := time.Now()
	ok := o.inner.Delete(t, dir, name)
	o.done(opDelete, start)
	trace.Exit(t, sp)
	return ok
}

// Link implements System.
func (o *Observed) Link(t T, oldDir, oldName, newDir, newName string) bool {
	sp := trace.Enter(t, "gfs.link")
	start := time.Now()
	ok := o.inner.Link(t, oldDir, oldName, newDir, newName)
	o.done(opLink, start)
	trace.Exit(t, sp)
	return ok
}

// List implements System.
func (o *Observed) List(t T, dir string) []string {
	sp := trace.Enter(t, "gfs.list")
	start := time.Now()
	names := o.inner.List(t, dir)
	o.done(opList, start)
	trace.Exit(t, sp)
	return names
}
