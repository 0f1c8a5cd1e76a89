// Package repl is the primary/backup replication layer over the
// mailboat library — the Grove-style step from one crash-safe box to a
// pair of them joined by a lossy network. The protocol's ack discipline
// is the replication analogue of the sync discipline one layer down:
//
//	an operation is acknowledged only after the BACKUP persists it.
//
// Deliver and Delete are remote-first: the primary assigns the next
// (epoch, seq), pushes the operation to the backup, and only after the
// backup confirms does it apply locally and ack. A definite replication
// failure (every attempt Lost) therefore aborts with NEITHER store
// touched — a failed replication RPC is never an ack barrier, exactly
// as a failed SyncDir is never a durability barrier. An indeterminate
// outcome (Unknown: the frame or its reply vanished) is retried under
// the same sequence number until it resolves — the backup recognizes
// the duplicate by seq and answers OK — because returning false while
// the backup may hold the message would let the "failed" delivery
// surface after a failover.
//
// Epochs generalize gfs.Mirrored's generation markers to two stores
// that can diverge: every promotion and every catch-up resync bumps the
// pair's epoch (persisted as marker files in the .repl meta-directory
// before it is used), and the backup rejects any frame carrying an
// older epoch. That fencing is what makes in-flight frames from before
// a failover or resync harmless — the modeled network can hold a
// reordered frame across a site reboot and deliver it after the
// catch-up, and the epoch gate turns it away. The seeded mutations
// repl-bug:ack-before-backup and repl-bug:resync-skips-epoch each break
// one of these two disciplines and are convicted by the checker.
package repl

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/mailboat"
	"repro/internal/netmodel"
)

// MetaDir is the replication meta-directory: epoch marker files
// ("e<N>"; the current epoch is the largest present) live here, beside
// the mailboxes they fence, exactly as gfs.MirrorMetaDir holds the
// mirror's generation markers.
const MetaDir = ".repl"

// Transport carries one replication request to the peer and reports
// the response plus what the caller may conclude — netmodel.Net's
// Call contract, which the TCP client reproduces over a real socket.
// A PeerDead() bool method, if it has one, is the failure detector: a
// fenced, one-way verdict that the peer is PERMANENTLY gone (its store's
// latch in the model, a refused-dial streak over TCP); the primary then
// acks alone.
type Transport interface {
	Call(t gfs.T, req []byte) ([]byte, netmodel.Outcome)
}

// Config tunes a Node's client leg and observability.
type Config struct {
	// RetryBackoff is the base pause between retries, doubled per
	// attempt up to mailboat.BackoffCap; 0 disables pacing. Modeled threads
	// never sleep.
	RetryBackoff time.Duration
	// Metrics records repl_* metrics. The checker leaves it zero, which
	// records nothing.
	Metrics Metrics
}

// OpResult is the outcome of a primary-side replicated operation.
type OpResult int

const (
	// OpOK: applied and acknowledged (backup first, then locally — or
	// locally alone when the peer is known dead).
	OpOK OpResult = iota
	// OpNameTaken: the chosen mailbox name holds a different message;
	// pick another name and run the operation again.
	OpNameTaken
	// OpFailed: definitely not applied anywhere — for a delivery the
	// mailbox pair is untouched. (Native deployments additionally cap
	// indeterminate retry loops and report OpFailed for those; the
	// modeled protocol keeps OpFailed definite.)
	OpFailed
	// OpIndeterminate: the replication leg succeeded (the backup
	// durably acknowledged — or the peer was fenced dead and the
	// primary proceeded alone) but this node could not finish its own
	// apply: its store is dying, possibly with the entry visible but
	// not durable. The caller must NEVER re-execute the operation —
	// an acking backup's copy may legitimately be consumed before any
	// retry runs, and a re-apply would resurrect it. Success may be
	// claimed only if the acking backup is promoted (the fail-stop
	// latch guarantees the ack-alone flavor can never pass that
	// check); otherwise there is no truthful answer at all.
	OpIndeterminate
	// OpUnknown: an attempt's outcome went unknown, and the replication
	// then gave up — the backup fenced this node out, or a catch-up
	// failed — so the backup may hold the operation or may not. There
	// is no truthful answer, and the caller must not re-execute it: a
	// fresh attempt would apply it a second time.
	OpUnknown
)

// Node is one replica: the mailboat library on its own store, the
// (epoch, seq) apply gate for its role as backup, and the remote-first
// client leg for its role as primary. The replication lock serializes
// the protocol on both roles; it is a gfs.Lock, so the model checker
// schedules it like any other lock.
type Node struct {
	id   int
	mb   *mailboat.Mailboat
	sys  gfs.System
	cfg  Config
	lock gfs.Lock

	// peer is the transport to the other node (nil = solo: operate
	// without replication, as after the peer is fenced dead).
	peer Transport
	// store is the fail-stop latch of the node's own store (nil on a
	// stack without one): once latched, must-succeed local apply loops
	// give up and the node is degraded.
	store gfs.FailStopper

	// mu guards the snapshot fields below for Status() readers on other
	// goroutines; protocol-path writes hold both the replication lock
	// and (briefly) mu. Never held across store operations. Under the
	// checker, every mu section declares the fields it reads or writes
	// on m (DESIGN.md "Source sets and wakeup trees"), as objects obj+epochObj, obj+seqObj,
	// obj+roleObj and obj+resyncObj: Pair reads them outside the
	// replication lock. lastApplied, resyncEpoch and window are touched
	// only under that lock, which orders them.
	m           *machine.Machine
	obj         machine.Obj
	mu          sync.Mutex
	epoch       uint64
	seq         uint64 // last sequence number confirmed by the backup
	lastApplied uint64 // backup role: last sequence applied this epoch
	primary     bool
	resyncing   bool
	resyncEpoch uint64
	lastResync  int64 // unix seconds; 0 = never
	// stale: the peer is known to lack this node's state — it acked
	// alone, its last catch-up failed, or the peer's last ping answer was
	// fenced or behind. Only a completed catch-up (supervise.go) clears it.
	stale bool
	// window is the catch-up window's authoritative name set per user
	// (backup role, volatile): Commit deletes everything outside it.
	window map[uint64]map[string]bool

	stop     chan struct{}
	stopOnce sync.Once
}

// The footprint names of a Node's snapshot fields, offsets from
// Node.obj.
const (
	epochObj machine.Obj = iota
	seqObj
	roleObj   // primary
	resyncObj // resyncing, resyncEpoch, lastResync, stale
	nodeObjs
)

// NewNode builds a replica over an initialized mailboat and its store,
// reading the persisted epoch from the .repl meta-directory. The store
// must include MetaDir in its directory layout.
func NewNode(t gfs.T, id int, mb *mailboat.Mailboat, sys gfs.System, cfg Config) *Node {
	nd := &Node{id: id, mb: mb, sys: sys, store: gfs.AsFailStopper(sys), cfg: cfg, stop: make(chan struct{})}
	if mt, ok := t.(*machine.T); ok {
		nd.m = mt.Machine()
		nd.obj = nd.m.Objects(uint64(nodeObjs))
	}
	nd.lock = sys.NewLock(t, nodeLocks.Name(uint64(id)))
	nd.epoch = readEpoch(t, sys)
	nd.cfg.Metrics.Epoch.Set(int64(nd.epoch))
	nd.cfg.Metrics.RolePrimary.Set(0)
	return nd
}

// SetPeer wires the transport to the peer.
func (nd *Node) SetPeer(peer Transport) { nd.peer = peer }

// Mailboat returns the node's library handle (local pickups run on the
// primary's).
func (nd *Node) Mailboat() *mailboat.Mailboat { return nd.mb }

// Shutdown stops the node's retry loops: any in-flight operation
// observes the signal at its next pause and aborts with OpFailed
// instead of sleeping on. Idempotent.
func (nd *Node) Shutdown() {
	nd.stopOnce.Do(func() { close(nd.stop) })
}

// Supervise runs one supervisor tick (supervise.go) per period until
// Shutdown: the daemon's primary runs it on a goroutine of its own after
// CatchUp. The ticker only paces the checked tick.
func (nd *Node) Supervise(t gfs.T, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-nd.stop:
			return
		case <-tick.C:
			nd.tick(t, (*Node).fence)
		}
	}
}

// stopped reports whether Shutdown was called.
func (nd *Node) stopped() bool {
	select {
	case <-nd.stop:
		return true
	default:
		return false
	}
}

// Status is a point-in-time snapshot for /healthz and tests.
type Status struct {
	ID             int    `json:"id"`
	Role           string `json:"role"`
	Epoch          uint64 `json:"epoch"`
	Seq            uint64 `json:"seq"`
	Resyncing      bool   `json:"resyncing"`
	Stale          bool   `json:"stale"`
	PeerDead       bool   `json:"peer_dead"`
	LastResyncUnix int64  `json:"last_resync_unix"`
}

// touch declares an access to a snapshot field on the checker's
// machine; a node on native threads has none.
func (nd *Node) touch(o machine.Obj, md machine.Mode) {
	if nd.m != nil {
		nd.m.Touch(nd.obj+o, md)
	}
}

// Status returns the node's current snapshot.
func (nd *Node) Status() Status {
	for o := epochObj; o < nodeObjs; o++ {
		nd.touch(o, machine.Read)
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	role := "backup"
	if nd.primary {
		role = "primary"
	}
	return Status{
		ID:             nd.id,
		Role:           role,
		Epoch:          nd.epoch,
		Seq:            nd.seq,
		Resyncing:      nd.resyncing,
		Stale:          nd.stale,
		PeerDead:       nd.peerGone(),
		LastResyncUnix: nd.lastResync,
	}
}

// Epoch returns the node's current epoch.
func (nd *Node) Epoch() uint64 {
	nd.touch(epochObj, machine.Read)
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.epoch
}

// write declares a write of o's snapshot fields and runs set under mu:
// the one way a snapshot field changes. Protocol-path writers also hold
// the replication lock; mu covers Status readers.
func (nd *Node) write(o machine.Obj, set func()) {
	nd.touch(o, machine.Write)
	nd.mu.Lock()
	set()
	nd.mu.Unlock()
}

func (nd *Node) setEpoch(e uint64) {
	nd.write(epochObj, func() { nd.epoch = e })
	nd.cfg.Metrics.Epoch.Set(int64(e))
}

func (nd *Node) setSeq(s uint64) { nd.write(seqObj, func() { nd.seq = s }) }

func (nd *Node) setResyncing(on bool, epoch uint64) {
	nd.write(resyncObj, func() { nd.resyncing, nd.resyncEpoch = on, epoch })
}

func (nd *Node) setStale(on bool) { nd.write(resyncObj, func() { nd.stale = on }) }

// SetPrimary flips the node's believed role (Pair and the deployment
// wiring call it; promotion via Promote also does).
func (nd *Node) SetPrimary(p bool) {
	nd.write(roleObj, func() { nd.primary = p })
	role := int64(0)
	if p {
		role = 1
	}
	nd.cfg.Metrics.RolePrimary.Set(role)
}

func (nd *Node) markResynced(t gfs.T) {
	unix := int64(0)
	if _, modeled := t.(*machine.T); !modeled {
		unix = time.Now().Unix()
	}
	nd.write(resyncObj, func() { nd.lastResync = unix })
	nd.cfg.Metrics.LastResyncUnix.Set(unix)
}

// peerGone reports the transport's fenced-dead verdict (a nil peer
// counts as gone: the node is running solo).
func (nd *Node) peerGone() bool {
	d, ok := nd.peer.(interface{ PeerDead() bool })
	return nd.peer == nil || ok && d.PeerDead()
}

// dead reports whether the node's own store has fail-stopped.
func (nd *Node) dead() bool { return nd.store != nil && nd.store.FailStopped() }

const (
	// maxCallRetries bounds the retries of a definitely-failed call
	// (Lost, or the backup transiently refusing).
	maxCallRetries = 6
	// indetRetries bounds, on native threads only, how long an operation
	// whose outcome went Unknown keeps retrying before it is abandoned
	// (counted in repl_indeterminate_total — the honest at-least-once
	// hazard of a real deployment). Modeled threads retry until the
	// outcome resolves; the fault budget bounds that.
	indetRetries = 64
)

// backoffDelay is the pause before retry number attempt (1-based): the
// one pacing rule, mailboat.Backoff, from RetryBackoff.
func (nd *Node) backoffDelay(attempt int) time.Duration {
	return mailboat.Backoff(nd.cfg.RetryBackoff, attempt)
}

// retryPause paces a retry loop; false means the node is shutting down
// and the loop must abort. Modeled threads never sleep — under the
// checker, time belongs to the scheduler — but still observe Shutdown.
func (nd *Node) retryPause(t gfs.T, attempt int) bool {
	if nd.stopped() {
		return false
	}
	if _, modeled := t.(*machine.T); modeled {
		return true
	}
	d := nd.backoffDelay(attempt)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-nd.stop:
		return false
	case <-timer.C:
		return true
	}
}

// The epoch marker file names and the node lock names.
var epochMarkers, nodeLocks = mailboat.NewNames("e"), mailboat.NewNames("repl")

// epochMarker is the marker file name for epoch e.
func epochMarker(e uint64) string { return epochMarkers.Name(e) }

// readEpoch returns the largest persisted epoch marker (0 = fresh).
func readEpoch(t gfs.T, sys gfs.System) uint64 {
	var max uint64
	for _, name := range sys.List(t, MetaDir) {
		if len(name) < 2 || name[0] != 'e' {
			continue
		}
		e, err := strconv.ParseUint(name[1:], 10, 64)
		if err == nil && e > max {
			max = e
		}
	}
	return max
}

// persistEpoch makes epoch e's marker durable: create (idempotent) and
// barrier the meta-directory. False means the marker is not known
// durable and the epoch must not be used.
func persistEpoch(t gfs.T, sys gfs.System, e uint64) bool {
	if e == 0 {
		return true
	}
	name := epochMarker(e)
	present := false
	for _, n := range sys.List(t, MetaDir) {
		if n == name {
			present = true
			break
		}
	}
	if !present {
		fd, ok := sys.Create(t, MetaDir, name)
		if !ok {
			return false
		}
		sys.Close(t, fd)
	}
	return sys.SyncDir(t, MetaDir)
}
