package gfs

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file is the gfs-level lift of the paper's replicated disk
// (Figure 1 / Table 3): two whole file-system backends mirrored behind
// the System interface, a permanent fail-stop fault turning the mirror
// into tracked degraded mode, reads failing over to the survivor, and a
// recovery-time Resilver that copies the authoritative replica onto a
// replacement to restore redundancy — the gfs analog of the replicated
// disk's recovery repair.
//
// The protocol keeps one invariant instead of cross-replica locks
// (which would wedge the cooperative model scheduler if held across
// machine steps):
//
//	every directory entry of replica 0 also exists in replica 1,
//	and replica 0's file contents are a prefix of replica 1's.
//
// Insertions (Create, Link, Append) therefore go to replica 1 FIRST and
// replica 0 second; removals (Delete) go to replica 0 first and
// replica 1 second; reads serve from replica 0, the published view.
// A crash or fault between the two legs leaves replica 1 ahead — an
// entry that exists but was never published, exactly the "operation in
// flight at the crash" state the spec already allows — never a
// published entry missing its backup. When the second leg of an insert
// fails transiently, the first leg is undone (close + delete); when the
// second leg of a removal fails transiently, the removal has already
// been published, so the leg is retried and a replica that persistently
// cannot follow is kicked from the mirror, RAID-style.
//
// Which replica survived a death is persisted as a generation marker:
// a dedicated MirrorMetaDir directory whose FILE COUNT is the
// generation (the API is write-once — no appends to existing files —
// so "bump" means creating one more empty file). The survivor bumps its
// generation the moment the mirror degrades; at recovery, the replica
// with the higher generation is the resilver source, so a reboot that
// lost all in-memory state still copies the survivor onto the stale
// replica and never backwards. Resilver copies MirrorMetaDir LAST: a
// crash mid-resilver leaves the generations unequal and the next
// recovery re-runs the (idempotent) copy.

// MirrorMetaDir is the mirror's bookkeeping directory. Callers must
// include it in every replica's directory set (NewOS creation list,
// NewModel dirs) alongside the data directories handed to NewMirrored.
const MirrorMetaDir = ".mirror"

// secondLegRetries bounds how often the second leg of a published
// removal is retried before the replica is kicked as unable to follow.
const secondLegRetries = 3

// FailStopper is implemented by layers that can latch permanently dead
// (gfs.Faulty). Mirrored uses it to tell "replica died" apart from
// ordinary operation failures such as create-exists or open-absent.
type FailStopper interface {
	FailStopped() bool
}

// Resilverer is implemented by layers that can restore redundancy
// during recovery. mailboat.Recover finds it with AsResilverer and runs
// it before anything else touches the store.
type Resilverer interface {
	// Resilver copies the authoritative replica onto the other and
	// returns the bytes written and whether full redundancy was
	// restored. The pass reads every file once per replica, so it also
	// returns what a Scrub of the repaired store would report — when ok,
	// recovery need not read the store again to learn it. It must only
	// run quiescent (single-threaded recovery).
	Resilver(t T) (rep ScrubReport, resilverBytes uint64, ok bool)
}

// NoSpacer is implemented by layers that can latch disk-full
// (gfs.Faulty's FaultNoSpace). Unlike a fail-stop the latch clears once
// space is freed, but while it holds every write fails the same way.
type NoSpacer interface {
	NoSpace() bool
}

type innerer interface{ Inner() System }

// asLayer unwraps Inner() chains (Observed, Checksummed, Faulty, …)
// until it finds a layer implementing L; the zero L (a nil interface or
// pointer) if the stack has none. Capability discovery must go through
// it: a direct type assertion answers "no" as soon as any wrapper —
// metrics, an envelope — sits on top of the layer that has the
// capability.
func asLayer[L any](sys System) (layer L) {
	for sys != nil {
		if l, ok := sys.(L); ok {
			return l
		}
		in, ok := sys.(innerer)
		if !ok {
			break
		}
		sys = in.Inner()
	}
	return layer
}

// AsFailStopper finds the stack's FailStopper; nil if it has none.
func AsFailStopper(sys System) FailStopper { return asLayer[FailStopper](sys) }

// AsNoSpacer finds the stack's NoSpacer; nil if it has none.
func AsNoSpacer(sys System) NoSpacer { return asLayer[NoSpacer](sys) }

// AsResilverer finds the stack's Resilverer (in practice the Mirrored
// under an Observed); nil if it has none — which is how single-backend
// stacks skip resilvering entirely.
func AsResilverer(sys System) Resilverer { return asLayer[Resilverer](sys) }

// ReplicaStatus is one replica's health in a MirrorStatus.
type ReplicaStatus struct {
	// Live is false while the replica is latched out of the mirror
	// (fail-stopped or kicked).
	Live bool `json:"live"`
	// Stale is true from ReplaceReplica until a successful Resilver:
	// the replica serves again but its contents are not yet trusted.
	Stale bool `json:"stale"`
}

// MirrorStatus is the mirror's health snapshot, JSON-shaped for the
// admin /healthz endpoint.
type MirrorStatus struct {
	Degraded    bool             `json:"degraded"`
	Resilvering bool             `json:"resilvering"`
	Failovers   uint64           `json:"failovers"`
	Replicas    [2]ReplicaStatus `json:"replicas"`
}

// MirrorMetrics is the mirror's slice of the observability surface.
// All fields may be nil (metrics disabled); no method reads the clock
// unless metrics are enabled, keeping checker executions syscall-free.
type MirrorMetrics struct {
	// Failovers counts reads re-served from the survivor after the
	// primary read replica died mid-operation.
	Failovers *obs.Counter
	// Degraded is 1 while the mirror is not fully redundant (a replica
	// failed, or a replacement has not been resilvered yet).
	Degraded *obs.Gauge
	// DegradedSeconds observes the length of each degraded interval,
	// from first failure to the resilver that restores redundancy; its
	// sum is the total degraded seconds.
	DegradedSeconds *obs.Histogram
	// ResilverBytes counts bytes written to the target replica by
	// resilver runs; ResilverRuns counts completed runs.
	ResilverBytes *obs.Counter
	ResilverRuns  *obs.Counter
	// ReplicaFailed counts permanent replica failures by replica index.
	ReplicaFailed [2]*obs.Counter
}

// NewMirrorMetrics registers the mirror metric families in r.
func NewMirrorMetrics(r *obs.Registry) *MirrorMetrics {
	m := &MirrorMetrics{
		Failovers: r.Counter("gfs_mirror_failovers_total",
			"Reads failed over to the surviving replica."),
		Degraded: r.Gauge("gfs_mirror_degraded",
			"1 while the mirror is not fully redundant."),
		DegradedSeconds: r.Histogram("gfs_mirror_degraded_seconds",
			"Length of degraded intervals (failure to resilver).",
			[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600, 3600}),
		ResilverBytes: r.Counter("gfs_mirror_resilver_bytes_total",
			"Bytes copied onto the target replica by resilver runs."),
		ResilverRuns: r.Counter("gfs_mirror_resilver_runs_total",
			"Completed resilver runs."),
	}
	for i := 0; i < 2; i++ {
		m.ReplicaFailed[i] = r.Counter("gfs_mirror_replica_failed_total",
			"Permanent replica failures by replica index.",
			"replica", fmt.Sprintf("%d", i))
	}
	return m
}

// replicaFailed records one replica loss (nil-receiver-safe, like the
// rest of the obs surface).
func (mm *MirrorMetrics) replicaFailed(i int) {
	if mm == nil {
		return
	}
	mm.ReplicaFailed[i].Inc()
	mm.Degraded.Set(1)
}

// failover records one read served from the survivor.
func (mm *MirrorMetrics) failover() {
	if mm == nil {
		return
	}
	mm.Failovers.Inc()
}

// resilverDone records a successful resilver and closes the degraded
// interval.
func (mm *MirrorMetrics) resilverDone(bytes uint64, degradedFor time.Duration) {
	if mm == nil {
		return
	}
	mm.Degraded.Set(0)
	mm.ResilverRuns.Inc()
	mm.ResilverBytes.Add(bytes)
	if degradedFor > 0 {
		mm.DegradedSeconds.ObserveDuration(degradedFor)
	}
}

// Mirrored is a System middleware mirroring every operation over two
// replica backends (any mix of Model, OS, and Faulty stacks). It is
// safe for concurrent use when its replicas are; per-FD state follows
// the usual file-descriptor rule of one thread per descriptor.
type Mirrored struct {
	rep  [2]System
	dirs []string

	// Metrics, when non-nil, records failovers, degraded intervals and
	// resilver volume (gfs_mirror_*).
	Metrics *MirrorMetrics

	// Integrity, when non-nil, records files healed from the peer
	// replica after checksum failures (gfs_integrity_*).
	Integrity *IntegrityMetrics

	// ResilverNoVerify skips the resilver's source integrity check, so a
	// rotten survivor is copied verbatim over a good replacement. It
	// exists only as a seeded bug for the checker
	// (mb/integrity-bug:no-verify-resilver); never set it in production.
	ResilverNoVerify bool

	// mu guards only the flag words below; it is never held across a
	// replica operation, so the cooperative model scheduler can always
	// make progress.
	mu          sync.Mutex
	failed      [2]bool
	stale       [2]bool
	resilvering bool
	failovers   uint64
	degradedAt  time.Time // set only when Metrics != nil
}

// NewMirrored mirrors the two replicas over the given data directories
// (the set Resilver walks — pass the same list the backends were built
// with, MirrorMetaDir excluded; the mirror adds it itself).
func NewMirrored(r0, r1 System, dirs []string) *Mirrored {
	return &Mirrored{rep: [2]System{r0, r1}, dirs: dirs}
}

// Replica returns replica i's backend stack (for tests and drills).
func (m *Mirrored) Replica(i int) System { return m.rep[i] }

// Status returns the mirror's health snapshot.
func (m *Mirrored) Status() MirrorStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MirrorStatus{
		Degraded:    m.failed[0] || m.failed[1] || m.stale[0] || m.stale[1],
		Resilvering: m.resilvering,
		Failovers:   m.failovers,
		Replicas: [2]ReplicaStatus{
			{Live: !m.failed[0], Stale: m.stale[0]},
			{Live: !m.failed[1], Stale: m.stale[1]},
		},
	}
}

// Degraded reports whether the mirror is not fully redundant.
func (m *Mirrored) Degraded() bool {
	return m.Status().Degraded
}

// ReplaceReplica declares replica i replaced: live again immediately,
// with whatever (stale) state its backend now holds, and flagged stale
// until a Resilver copies the survivor over it. Callers revive the
// backend first (Faulty.Revive, or a fresh directory tree) and must be
// quiescent — replacement is a recovery-time action. Marking the
// replica live BEFORE resilvering is deliberate: recovery runs Resilver
// before any reads, and a recovery procedure that forgets to is exactly
// the mutation the explore scenarios must catch (stale reads surface as
// refinement violations instead of hiding behind a dead-replica latch).
func (m *Mirrored) ReplaceReplica(i int) {
	m.mu.Lock()
	m.failed[i] = false
	m.stale[i] = true
	m.mu.Unlock()
}

func (m *Mirrored) alive(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.failed[i]
}

// readReplica picks the replica serving reads: the published replica 0
// while it lives, the survivor otherwise.
func (m *Mirrored) readReplica() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.failed[0] {
		return 0
	}
	return 1
}

// noteDead checks whether replica i's stack is latched fail-stopped
// after one of its operations failed, marking it out of the mirror on
// first detection. It reports whether the replica is (now) failed, so
// callers can tell "replica died, reroute" from "the operation itself
// failed".
func (m *Mirrored) noteDead(t T, i int) bool {
	if fs := AsFailStopper(m.rep[i]); fs == nil || !fs.FailStopped() {
		return !m.alive(i)
	}
	m.markFailed(t, i, "fail-stop")
	return true
}

// markFailed latches replica i out of the mirror and, on first
// detection, bumps the survivor's generation so the authoritative
// replica is known across crashes and reboots.
func (m *Mirrored) markFailed(t T, i int, why string) {
	m.mu.Lock()
	if m.failed[i] {
		m.mu.Unlock()
		return
	}
	m.failed[i] = true
	if m.Metrics != nil && m.degradedAt.IsZero() {
		m.degradedAt = time.Now()
	}
	m.mu.Unlock()

	tracef(t, "mirror: replica %d failed (%s); degraded", i, why)
	m.Metrics.replicaFailed(i)
	m.bumpGeneration(t, 1-i)
}

// generation returns replica i's generation: the file count of its
// MirrorMetaDir (zero for a dead or empty replica).
func (m *Mirrored) generation(t T, i int) int {
	return len(m.rep[i].List(t, MirrorMetaDir))
}

// bumpGeneration adds one marker file to replica j's MirrorMetaDir —
// the write-once API's increment. Best-effort: if the survivor cannot
// record the bump (itself dying), resilver source selection falls back
// to the in-memory flags.
func (m *Mirrored) bumpGeneration(t T, j int) {
	n := m.generation(t, j)
	for k := 0; k < 8; k++ {
		fd, ok := m.rep[j].Create(t, MirrorMetaDir, fmt.Sprintf("g%d", n+k))
		if !ok {
			continue
		}
		m.rep[j].Sync(t, fd)
		m.rep[j].Close(t, fd)
		return
	}
}

// rewriteMarker regenerates one generation marker in place on replica
// j. A marker's stored bytes are fully determined by its own name (the
// envelope has an empty payload and the marker's path is its birth
// path), so unlike a data file a rotten marker can be rebuilt from
// nothing — both replicas' copies of the same marker are always
// byte-identical by construction.
func (m *Mirrored) rewriteMarker(t T, j int, name string) bool {
	m.rep[j].Delete(t, MirrorMetaDir, name)
	fd, ok := m.rep[j].Create(t, MirrorMetaDir, name)
	if !ok {
		return false
	}
	ok = m.rep[j].Sync(t, fd)
	m.rep[j].Close(t, fd)
	if ok {
		tracef(t, "mirror: regenerated rotten marker %s/%s on replica %d", MirrorMetaDir, name, j)
		m.Integrity.healed()
	}
	return ok
}

func (m *Mirrored) countFailover(t T) {
	m.mu.Lock()
	m.failovers++
	m.mu.Unlock()
	m.Metrics.failover()
	tracef(t, "mirror: read failed over to survivor")
}

// tracef records a mirror event where someone can see it: in the
// checker's execution trace on a modeled thread, and on the request's
// span when the caller carries one.
func tracef(t T, format string, args ...any) {
	if mt, ok := t.(*machine.T); ok {
		mt.Tracef(format, args...)
	}
	trace.Event(t, format, args...)
}

// mirrorFD is the mirror's descriptor. Append-mode descriptors carry
// one leg per replica that was alive at creation; read-mode descriptors
// serve from one replica and remember (dir, name) so a mid-read death
// can fail over by reopening on the survivor.
type mirrorFD struct {
	w         [2]FD // append-mode legs; nil where the replica had none
	reading   bool
	rep       int
	rfd       FD
	dir, name string
}

// NewLock implements System. Locks are volatile shared memory, not
// replicated state; replica 0's allocator serves them (Faulty never
// gates NewLock, so a dead replica 0 still allocates).
func (m *Mirrored) NewLock(t T, name string) Lock { return m.rep[0].NewLock(t, name) }

// Create implements System: insert-ordered, replica 1 first. A mixed
// result with both replicas alive means the second leg transiently
// failed (the ordering invariant excludes honest disagreement), so the
// first leg is undone and the create reports failure.
func (m *Mirrored) Create(t T, dir, name string) (FD, bool) {
	if !m.alive(1) {
		fd, ok := m.rep[0].Create(t, dir, name)
		if !ok {
			m.noteDead(t, 0)
			return nil, false
		}
		return &mirrorFD{w: [2]FD{fd, nil}}, true
	}
	fd1, ok1 := m.rep[1].Create(t, dir, name)
	if !ok1 {
		if m.noteDead(t, 1) {
			return m.Create(t, dir, name) // reroute to the survivor
		}
		return nil, false // exists (or replica 1 transient): nothing touched
	}
	if !m.alive(0) {
		return &mirrorFD{w: [2]FD{nil, fd1}}, true
	}
	fd0, ok0 := m.rep[0].Create(t, dir, name)
	if !ok0 {
		if m.noteDead(t, 0) {
			return &mirrorFD{w: [2]FD{nil, fd1}}, true
		}
		// Replica 0 alive but refused: undo the replica 1 leg so the
		// failed create leaves no orphan (and no burnt name).
		m.rep[1].Close(t, fd1)
		m.rep[1].Delete(t, dir, name)
		return nil, false
	}
	return &mirrorFD{w: [2]FD{fd0, fd1}}, true
}

// Open implements System: serves from the published replica, failing
// over to the survivor when the read replica turns out dead — or when
// the read replica's copy fails its checksum. In the latter case the
// mirror first tries to heal the rotten copy from the peer's verified
// copy (see healFile) and re-serve locally; if healing is impossible
// the read still fails over to the peer's good copy, so a single
// rotten replica never surfaces as data loss.
func (m *Mirrored) Open(t T, dir, name string) (FD, bool) {
	i := m.readReplica()
	fd, ok := m.rep[i].Open(t, dir, name)
	if ok {
		return &mirrorFD{reading: true, rep: i, rfd: fd, dir: dir, name: name}, true
	}
	if m.noteDead(t, i) {
		if !m.alive(1 - i) {
			return nil, false
		}
		m.countFailover(t)
		i = 1 - i
		if fd, ok = m.rep[i].Open(t, dir, name); !ok {
			return nil, false
		}
		return &mirrorFD{reading: true, rep: i, rfd: fd, dir: dir, name: name}, true
	}
	// The replica is alive but refused the open. Absent is the common,
	// honest case (a raced delete); a corrupt envelope is the one this
	// layer exists for: self-heal from the peer, else serve the peer.
	if m.alive(1-i) && m.verdict(t, i, dir, name) == VerdictCorrupt {
		if m.healFile(t, dir, name, i) {
			if fd, ok = m.rep[i].Open(t, dir, name); ok {
				return &mirrorFD{reading: true, rep: i, rfd: fd, dir: dir, name: name}, true
			}
		}
		// Heal unavailable (or the healed copy still refuses): the
		// peer's copy may still be good — serve it directly.
		if fd, ok = m.rep[1-i].Open(t, dir, name); ok {
			m.countFailover(t)
			return &mirrorFD{reading: true, rep: 1 - i, rfd: fd, dir: dir, name: name}, true
		}
	}
	return nil, false
}

// verdict asks replica i's checksum layer how dir/name looks; without
// an envelope layer there is nothing to verify and nothing to heal.
func (m *Mirrored) verdict(t T, i int, dir, name string) Verdict {
	c := AsChecksummed(m.rep[i])
	if c == nil {
		return VerdictAbsent
	}
	return c.VerifyFile(t, dir, name)
}

// raw returns replica i's stack below the checksum envelope — the view
// in which file bytes are the stored envelope frames — or the replica
// itself when it has no envelope layer. Heal and resilver copies run
// at this level so both replicas stay byte-identical on disk and a
// corrupt source's bytes can actually be read (the envelope layer
// refuses to decode them).
func (m *Mirrored) raw(i int) System {
	if c := AsChecksummed(m.rep[i]); c != nil {
		return c.Inner()
	}
	return m.rep[i]
}

// healFile rewrites replica bad's rotten copy of dir/name from the
// peer's copy, after verifying that the EXACT peer bytes it will copy
// are sealed and sound (verifying in a separate read would race the
// fault layer: a corruption injected at the copy's own read would slip
// past the earlier verdict).
func (m *Mirrored) healFile(t T, dir, name string, bad int) bool {
	good := 1 - bad
	if !m.alive(good) || !m.alive(bad) || AsChecksummed(m.rep[good]) == nil {
		return false
	}
	data, _, ok := readAll(t, m.raw(good), dir, name)
	if !ok || m.noteDead(t, good) {
		return false
	}
	// Unsealed is heal-worthy: it is the honest crash artifact of an
	// abandoned write (a torn spool file, say), and the peer's unsealed
	// bytes are the best surviving version. Only a peer whose own copy
	// fails verification outright is useless as a heal source.
	if v := VerifyEnvelope(data); v != VerdictOK && v != VerdictUnsealed {
		return false
	}
	return m.healFrom(t, dir, name, bad, data)
}

// healFrom rewrites replica bad's copy of dir/name as data — the peer's
// bytes, which the caller has read and judged good in this same
// operation. The copy itself is not atomic (delete + create + appends),
// so the protocol persists authority FIRST: the good replica's
// generation is bumped before the rotten copy is touched, making the
// good replica the resilver source should a crash land mid-heal —
// otherwise the half-healed (deleted) copy on the published replica
// would read as "unpublished orphan on the peer" and the next resilver
// would delete the only good copy. After a successful copy the healed
// replica's generation is bumped too, restoring equal marker counts
// (equal generations assert "replicas identical").
func (m *Mirrored) healFrom(t T, dir, name string, bad int, data []byte) bool {
	good := 1 - bad
	m.bumpGeneration(t, good)
	if _, ok := copyFile(t, m.raw(bad), dir, name, data); !ok {
		m.noteDead(t, bad)
		return false
	}
	m.bumpGeneration(t, bad)
	m.Integrity.healed()
	tracef(t, "mirror: healed %s/%s on replica %d from replica %d", dir, name, bad, good)
	return true
}

// Append implements System: insert-ordered like Create, so replica 0's
// contents stay a prefix of replica 1's. A transient second-leg failure
// reports false — the caller abandons the file, which erases the
// divergence; a dead second leg leaves the survivor's write standing.
func (m *Mirrored) Append(t T, fd FD, data []byte) bool {
	mf := fd.(*mirrorFD)
	wrote1 := false
	if mf.w[1] != nil && m.alive(1) {
		if m.rep[1].Append(t, mf.w[1], data) {
			wrote1 = true
		} else if !m.noteDead(t, 1) {
			return false // replica 1 transient: replica 0 untouched
		}
	}
	if mf.w[0] != nil && m.alive(0) {
		if m.rep[0].Append(t, mf.w[0], data) {
			return true
		}
		if m.noteDead(t, 0) {
			return wrote1
		}
		return false // replica 0 transient: not published, caller abandons
	}
	return wrote1
}

// Close implements System. Legs on dead replicas are still closed —
// Faulty passes Close through its latch precisely so descriptors never
// leak on a dead backend.
func (m *Mirrored) Close(t T, fd FD) {
	mf := fd.(*mirrorFD)
	if mf.reading {
		m.rep[mf.rep].Close(t, mf.rfd)
		return
	}
	for i := 0; i < 2; i++ {
		if mf.w[i] != nil {
			m.rep[i].Close(t, mf.w[i])
		}
	}
}

// failoverFD moves a read descriptor to the survivor after its replica
// died mid-use: close the dead leg, reopen (dir, name) on the other
// side. Reports whether the descriptor now serves from a live replica.
func (m *Mirrored) failoverFD(t T, mf *mirrorFD) bool {
	other := 1 - mf.rep
	if !m.alive(other) {
		return false
	}
	m.rep[mf.rep].Close(t, mf.rfd)
	nfd, ok := m.rep[other].Open(t, mf.dir, mf.name)
	if !ok {
		mf.rfd = nil
		return false
	}
	m.countFailover(t)
	mf.rep, mf.rfd = other, nfd
	return true
}

// ReadAt implements System. ReadAt is stateless in the offset, so a
// mid-read failover just re-issues the same (off, n) on the survivor.
func (m *Mirrored) ReadAt(t T, fd FD, off, n uint64) []byte {
	mf := fd.(*mirrorFD)
	if !mf.reading {
		// Append-mode reads are unusual but legal; serve a live leg.
		for _, i := range []int{0, 1} {
			if mf.w[i] != nil && m.alive(i) {
				return m.rep[i].ReadAt(t, mf.w[i], off, n)
			}
		}
		return nil
	}
	if mf.rfd == nil {
		return nil
	}
	data := m.rep[mf.rep].ReadAt(t, mf.rfd, off, n)
	if len(data) == 0 && m.noteDead(t, mf.rep) && m.failoverFD(t, mf) {
		data = m.rep[mf.rep].ReadAt(t, mf.rfd, off, n)
	}
	return data
}

// Size implements System.
func (m *Mirrored) Size(t T, fd FD) uint64 {
	mf := fd.(*mirrorFD)
	if !mf.reading {
		for _, i := range []int{0, 1} {
			if mf.w[i] != nil && m.alive(i) {
				return m.rep[i].Size(t, mf.w[i])
			}
		}
		return 0
	}
	if mf.rfd == nil {
		return 0
	}
	size := m.rep[mf.rep].Size(t, mf.rfd)
	if size == 0 && m.noteDead(t, mf.rep) && m.failoverFD(t, mf) {
		size = m.rep[mf.rep].Size(t, mf.rfd)
	}
	return size
}

// Sync implements System: true only when every live leg made the data
// durable (a dead replica's durability is the resilver's problem).
func (m *Mirrored) Sync(t T, fd FD) bool {
	mf := fd.(*mirrorFD)
	if mf.reading {
		return m.rep[mf.rep].Sync(t, mf.rfd)
	}
	synced := false
	for _, i := range []int{1, 0} {
		if mf.w[i] == nil || !m.alive(i) {
			continue
		}
		if m.rep[i].Sync(t, mf.w[i]) {
			synced = true
		} else if !m.noteDead(t, i) {
			return false
		}
	}
	return synced
}

// SyncDir implements System: like Sync, true only when every live leg
// made the directory's entries durable (a dead replica's durability is
// the resilver's problem).
func (m *Mirrored) SyncDir(t T, dir string) bool {
	synced := false
	for _, i := range []int{1, 0} {
		if !m.alive(i) {
			continue
		}
		if m.rep[i].SyncDir(t, dir) {
			synced = true
		} else if !m.noteDead(t, i) {
			return false
		}
	}
	return synced
}

// Delete implements System: remove-ordered, replica 0 first. Once the
// published replica has removed the entry the operation is committed,
// so a replica 1 that cannot follow (and is not dead) is retried and
// then kicked — the mirror drops the replica rather than un-publish a
// removal it cannot undo.
func (m *Mirrored) Delete(t T, dir, name string) bool {
	if !m.alive(0) {
		ok := m.rep[1].Delete(t, dir, name)
		if !ok {
			m.noteDead(t, 1)
		}
		return ok
	}
	if !m.rep[0].Delete(t, dir, name) {
		if m.noteDead(t, 0) {
			return m.Delete(t, dir, name) // reroute to the survivor
		}
		return false // absent (or replica 0 transient): replica 1 untouched
	}
	if !m.alive(1) {
		return true
	}
	for attempt := 0; attempt < secondLegRetries; attempt++ {
		if m.rep[1].Delete(t, dir, name) {
			return true
		}
		if m.noteDead(t, 1) {
			return true
		}
	}
	m.markFailed(t, 1, "kicked: cannot complete delete "+dir+"/"+name)
	return true
}

// Link implements System: insert-ordered like Create, with the same
// undo of the replica 1 leg when replica 0 transiently refuses.
func (m *Mirrored) Link(t T, oldDir, oldName, newDir, newName string) bool {
	if !m.alive(1) {
		ok := m.rep[0].Link(t, oldDir, oldName, newDir, newName)
		if !ok {
			m.noteDead(t, 0)
		}
		return ok
	}
	if !m.rep[1].Link(t, oldDir, oldName, newDir, newName) {
		if m.noteDead(t, 1) {
			return m.Link(t, oldDir, oldName, newDir, newName)
		}
		return false
	}
	if !m.alive(0) {
		return true
	}
	if m.rep[0].Link(t, oldDir, oldName, newDir, newName) {
		return true
	}
	if m.noteDead(t, 0) {
		return true
	}
	m.rep[1].Delete(t, newDir, newName) // undo: leave no orphan
	return false
}

// List implements System, from the published replica with failover.
func (m *Mirrored) List(t T, dir string) []string {
	i := m.readReplica()
	names := m.rep[i].List(t, dir)
	if names == nil && m.noteDead(t, i) && m.alive(1-i) {
		m.countFailover(t)
		names = m.rep[1-i].List(t, dir)
	}
	return names
}

// resilverSource picks the authoritative replica: a failed or stale
// replica can never be the source; with both trusted, the higher
// persisted generation wins (the survivor of a pre-reboot death), and
// a tie normally means no death happened, so the published replica 0 is
// the truth (replica 1 may hold unpublished crash orphans, which
// copying replica 0 over it un-does — the "operation did not happen"
// outcome the spec allows for an operation in flight at the crash).
//
// The one exception to the tie rule: a replica that is completely
// blank — no data files and no generation markers — while its peer is
// not. That is a factory-fresh replacement for a disk that died while
// the mirror was OFF: no running survivor was around to witness the
// death and bump its own generation, so the generations still tie. A
// blank replica must never be the copy source (it would wipe the
// survivor), so the survivor's authority is persisted with a
// generation bump first — a crash mid-resilver then re-picks it by
// generation even once the replacement is partially populated and no
// longer blank. The replacement is flagged stale so the mirror reports
// degraded until the copy completes.
func (m *Mirrored) resilverSource(t T) (src int, ok bool) {
	m.mu.Lock()
	failed, stale := m.failed, m.stale
	m.mu.Unlock()
	switch {
	case failed[0] || stale[0]:
		src = 1
	case failed[1] || stale[1]:
		src = 0
	case m.generation(t, 1) > m.generation(t, 0):
		src = 1
	case m.blank(t, 0) && !m.blank(t, 1):
		m.bumpGeneration(t, 1)
		m.mu.Lock()
		m.stale[0] = true
		m.mu.Unlock()
		src = 1
	default:
		src = 0
	}
	if failed[src] || stale[src] {
		return 0, false // no trusted replica to copy from
	}
	return src, true
}

// blank reports whether replica i holds no files at all — no data and
// no generation markers — as a factory-fresh replacement disk would.
// (A fail-stopped replica also lists as blank; resilverSource's callers
// tolerate that, since a copy toward or from a dead replica fails
// before mutating anything.)
func (m *Mirrored) blank(t T, i int) bool {
	if len(m.rep[i].List(t, MirrorMetaDir)) > 0 {
		return false
	}
	for _, dir := range m.dirs {
		if len(m.rep[i].List(t, dir)) > 0 {
			return false
		}
	}
	return true
}

// readAll reads dir/name whole from sys, asking each ReadAt for what
// remains of the file (at most MaxAppend a call). opened is
// false when the file cannot be opened (absent, or the backend dead);
// whole is false when the backend stopped answering before Size bytes
// arrived, and data is then the prefix it did serve. The envelope layer
// lets verification classify such a prefix; the mirror treats anything
// short of whole as a failed read.
func readAll(t T, sys System, dir, name string) (data []byte, opened, whole bool) {
	fd, ok := sys.Open(t, dir, name)
	if !ok {
		return nil, false, false
	}
	defer sys.Close(t, fd)
	size := sys.Size(t, fd)
	data = make([]byte, 0, size)
	for uint64(len(data)) < size {
		chunk := sys.ReadAt(t, fd, uint64(len(data)), min(size-uint64(len(data)), MaxAppend))
		if len(chunk) == 0 {
			return data, true, false
		}
		data = append(data, chunk...)
	}
	return data, true, true
}

// copyFile rewrites dir/name on dst as an exact copy of data (the API
// is write-once, so "rewrite" is delete + create + chunked appends).
func copyFile(t T, dst System, dir, name string, data []byte) (uint64, bool) {
	dst.Delete(t, dir, name) // absent is fine
	fd, ok := dst.Create(t, dir, name)
	if !ok {
		return 0, false
	}
	var written uint64
	for off := 0; off < len(data); off += MaxAppend {
		end := off + MaxAppend
		if end > len(data) {
			end = len(data)
		}
		if !dst.Append(t, fd, data[off:end]) {
			dst.Close(t, fd)
			return written, false
		}
		written += uint64(end - off)
	}
	ok = dst.Sync(t, fd)
	dst.Close(t, fd)
	return written, ok
}

// Resilver implements Resilverer: it copies the authoritative replica
// over the other, directory by directory — deleting extraneous names,
// rewriting differing files in MaxAppend chunks — and finishes by
// equalizing the generation markers, so a crash anywhere mid-resilver
// leaves the generations unequal and the next recovery simply re-runs
// the copy (every step is idempotent). On success both replicas are
// byte-identical, the stale flags clear, and the mirror is redundant
// again. It must run quiescent (the single-threaded recovery era).
//
// The pass reads every file once per replica (reconcile), and those two
// reads also settle both copies' envelope verdicts, so rep is what a
// Scrub of the repaired store would report: recovery's integrity sweep
// and its redundancy repair are the same sweep. rep is a return value,
// not mirror state — nothing of it outlives the call.
func (m *Mirrored) Resilver(t T) (rep ScrubReport, resilverBytes uint64, ok bool) {
	src, ok := m.resilverSource(t)
	if !ok || !m.alive(1-src) {
		// No trusted source, or a peer dead and not replaced: still
		// degraded.
		return rep, 0, false
	}

	m.mu.Lock()
	m.resilvering = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.resilvering = false
		if ok {
			m.stale = [2]bool{}
		}
		degradedFor := time.Duration(0)
		if ok && !m.degradedAt.IsZero() {
			degradedFor = time.Since(m.degradedAt)
			m.degradedAt = time.Time{}
		}
		m.mu.Unlock()
		if ok {
			m.Metrics.resilverDone(resilverBytes, degradedFor)
		}
	}()

	tracef(t, "mirror: resilver replica %d <- replica %d", 1-src, src)

	// Data directories first, the generation directory LAST: equal
	// generations assert "replicas identical", so they must become
	// equal only after the data truly is — and only after every file
	// the pass wrote has been re-read and verified (a destination that
	// silently dropped bytes mid-copy must not be declared redundant).
	// A failed verification earns ONE retry of the whole data pass: the
	// common honest cause is rot injected by the verification's own
	// reads (silent corruption strikes whenever a file is opened), which
	// the retry detects at the integrity gate and heals — while a
	// destination that keeps lying about its writes still fails the
	// second pass and leaves the mirror degraded.
	for pass := 0; ; pass++ {
		// Checked, Unsealed and Bad describe the store as the last pass
		// left it; Corrupt and Healed count events across both.
		rep.Checked, rep.Unsealed, rep.Bad = 0, 0, nil
		verified := true
		for _, dir := range m.dirs {
			n, rewritten, dok := m.resilverDir(t, src, dir, &rep)
			resilverBytes += n
			if !dok {
				return rep, resilverBytes, false
			}
			if verified = m.verifyDir(t, src, dir, rewritten); !verified {
				break
			}
		}
		if verified {
			break
		}
		if pass == 1 {
			return rep, resilverBytes, false
		}
	}
	n, _, ok := m.resilverDir(t, src, MirrorMetaDir, &rep)
	return rep, resilverBytes + n, ok
}

// resilverDir copies one directory from replica src onto its peer:
// extraneous destination names are deleted, then every source file is
// reconciled with the destination's copy. It returns the bytes written
// to the destination and the names of the files either replica had
// rewritten — the ones verifyDir must re-read.
func (m *Mirrored) resilverDir(t T, src int, dir string, rep *ScrubReport) (written uint64, rewritten []string, ok bool) {
	dst := 1 - src
	srcNames := m.rep[src].List(t, dir)
	// A fail-stopped source lies plausibly: its List reads as an
	// empty directory and its Size as 0 bytes, either of which would
	// make the copy destroy the destination's good data. Re-check
	// the source's health after every read of it, before any write
	// to the destination (the recovery era is single-threaded, so no
	// new death can slip in between the read and the check).
	if m.noteDead(t, src) {
		return 0, nil, false
	}
	have := make(map[string]bool, len(srcNames))
	for _, name := range srcNames {
		have[name] = true
	}
	for _, name := range m.rep[dst].List(t, dir) {
		if !have[name] && !m.rep[dst].Delete(t, dir, name) {
			return 0, nil, false
		}
	}
	for _, name := range srcNames {
		n, rewrote, rok := m.reconcile(t, rep, dir, name, src, true)
		written += n
		if !rok {
			return written, rewritten, false
		}
		if rewrote {
			rewritten = append(rewritten, name)
		}
	}
	return written, rewritten, true
}

// reconcile is the per-file unit of both Resilver and Scrub. It reads
// dir/name ONCE per live replica and draws every conclusion those reads
// license: each copy's envelope verdict — computed on the exact bytes
// read, so a corruption injected at the read itself cannot slip past a
// verdict from an earlier read — whether the copies are byte-identical,
// and the file's lines in the scrub report, which describe the copies
// as reconcile LEAVES them (Corrupt and Healed count what it found and
// mended on the way). Copies no envelope layer can judge are compared
// and copied but never counted.
//
// With heal set, a copy that fails verification while its peer's copy
// verifies is rewritten from the peer's bytes already in hand.
//
// src >= 0 is resilver mode (pass -1 to scrub). Replica src is then
// authoritative for EXISTENCE (generations say so), but each file's
// BYTES must still prove themselves — a survivor can rot on the shelf,
// and copying it unverified would clobber the peer's good copy with
// garbage — so only the source is healed in reverse (peer -> source; a
// generation marker, which carries no payload, is regenerated from its
// name when the peer has no copy to heal from, as at a blank-replica
// resilver), and then the destination is rewritten wherever its bytes
// differ from the source's. Rot with no good copy anywhere is an
// unrecoverable file, not a reason to stay degraded: like a RAID scrub
// logging an unreadable sector, the rotten bytes are copied verbatim —
// replicas converge, the evidence survives, reads of the file keep
// failing loudly, and the report lists it in Bad — while every other
// file regains redundancy. Unsealed files are crash-abandoned writes,
// not rot, and copy as they are.
//
// rewrote reports whether either replica's copy was rewritten, i.e.
// whether the resilver owes the file a verify-after-write: an untouched
// file was proven byte-identical by this very read. ok is false when
// the source could not be read or a resilver write failed.
func (m *Mirrored) reconcile(t T, rep *ScrubReport, dir, name string, src int, heal bool) (written uint64, rewrote, ok bool) {
	var data [2][]byte
	var have [2]bool
	var v [2]Verdict
	order := [2]int{max(src, 0), 1 - max(src, 0)}
	// read loads replica i's copy and judges it; false means the
	// authoritative source could not be read. A fail-stopped source
	// lies plausibly (see resilverDir), so its health is re-checked
	// after every read of it, before anything is written.
	read := func(i int) bool {
		have[i], v[i] = false, VerdictAbsent
		if m.alive(i) {
			data[i], _, have[i] = readAll(t, m.raw(i), dir, name)
		}
		if i == src && (!have[i] || m.noteDead(t, src)) {
			return false
		}
		c := AsChecksummed(m.rep[i])
		if !have[i] || c == nil || (i == src && m.ResilverNoVerify) {
			return true
		}
		// Identical bytes earn the identical verdict: on a healthy pair
		// the second copy costs a comparison, not a second checksum.
		if first := order[0]; i != first && v[first] != VerdictAbsent && bytes.Equal(data[i], data[first]) {
			v[i] = v[first]
		} else {
			v[i] = VerifyEnvelope(data[i])
		}
		if v[i] == VerdictCorrupt {
			c.noteDetected(t, dir, name, v[i])
			rep.Corrupt++
		}
		return true
	}
	good := func(i int) bool { return v[i] == VerdictOK || v[i] == VerdictUnsealed }
	for _, i := range order {
		if !read(i) {
			return 0, false, false
		}
	}
	for _, i := range order {
		if !heal || v[i] != VerdictCorrupt || (src >= 0 && i != src) {
			continue
		}
		switch {
		case good(1-i) && m.healFrom(t, dir, name, i, data[1-i]):
			data[i], v[i] = data[1-i], v[1-i]
			rep.Healed++
			rewrote = true
		case i == src && dir == MirrorMetaDir && m.rewriteMarker(t, i, name):
			rep.Healed++
			if !read(i) {
				return 0, false, false
			}
		case i == src:
			tracef(t, "mirror: resilver: %s/%s corrupt on source replica %d, no good copy", dir, name, src)
		}
	}
	if src >= 0 {
		dst := 1 - src
		if !have[dst] || !bytes.Equal(data[dst], data[src]) {
			n, wok := copyFile(t, m.raw(dst), dir, name, data[src])
			if !wok {
				return n, rewrote, false
			}
			written, rewrote = n, true
			if v[dst] == VerdictCorrupt && good(src) {
				rep.Healed++
				m.Integrity.healed()
			}
		}
		v[dst] = v[src]
	}
	for _, verdict := range v {
		switch verdict {
		case VerdictAbsent:
			continue
		case VerdictUnsealed:
			rep.Unsealed++
		case VerdictCorrupt:
			rep.Bad = append(rep.Bad, dir+"/"+name)
		}
		rep.Checked++
	}
	return written, rewrote, true
}

// verifyDir is the resilver's verify-after-write for one directory: the
// two listings must be equal, and every file the pass rewrote is read
// back from both replicas and compared. A file the pass left alone
// needs no second look — the pass's own read proved it byte-identical.
// It runs BEFORE the generation markers are equalized, so a destination
// leg that silently dropped or shortened a file (a lying device, a
// fault swallowed mid-copy) leaves the generations unequal and the next
// recovery re-runs the copy instead of trusting it.
func (m *Mirrored) verifyDir(t T, src int, dir string, rewritten []string) bool {
	dst := 1 - src
	srcNames := m.rep[src].List(t, dir)
	if m.noteDead(t, src) || !slices.Equal(srcNames, m.rep[dst].List(t, dir)) {
		return false
	}
	for _, name := range rewritten {
		want, _, rok := readAll(t, m.raw(src), dir, name)
		if !rok || m.noteDead(t, src) {
			return false
		}
		if got, _, gok := readAll(t, m.raw(dst), dir, name); !gok || !bytes.Equal(got, want) {
			tracef(t, "mirror: resilver verify: %s/%s differs on replica %d", dir, name, dst)
			return false
		}
	}
	return true
}

// Scrub implements Scrubber over the whole mirror: every file on every
// live replica is verified against its envelope; with heal set, a copy
// that fails verification while its peer's copy verifies is rewritten
// from the peer. Files rotten on both replicas (or unhealable) are
// reported in Bad. It is reconcile with no authoritative side — the
// code boot recovery runs under the checker — and like Resilver it
// should run quiescent: recovery, or the server's background scrub
// loop, which tolerates the transient delete-then-rewrite window
// inside a heal.
func (m *Mirrored) Scrub(t T, heal bool) ScrubReport {
	var rep ScrubReport
	for _, dir := range append(append([]string{}, m.dirs...), MirrorMetaDir) {
		var names []string
		for i := 0; i < 2; i++ {
			if m.alive(i) {
				names = append(names, m.rep[i].List(t, dir)...)
			}
		}
		sort.Strings(names)
		for _, name := range slices.Compact(names) {
			m.reconcile(t, &rep, dir, name, -1, heal)
		}
	}
	return rep
}
