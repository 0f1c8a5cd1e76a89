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
type Transport interface {
	Call(t gfs.T, req []byte) ([]byte, netmodel.Outcome)
}

// Config tunes a Node's client leg and observability.
type Config struct {
	// MaxCallRetries bounds retries of a definitely-failed call (Lost,
	// or the backup transiently refusing). 0 means the default of 6.
	MaxCallRetries int
	// RetryBackoff is the base pause between retries, doubled per
	// attempt up to mailboat.BackoffCap; 0 disables pacing. Modeled threads
	// never sleep.
	RetryBackoff time.Duration
	// Metrics, when non-nil, records repl_* metrics. Leave nil under
	// the checker; every method is nil-receiver-safe.
	Metrics *Metrics
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
	// peerDead, when non-nil, reports the failure detector's verdict
	// that the peer is PERMANENTLY gone (fail-stop latch in the model,
	// a refused-connection streak in deployment). A true verdict lets
	// the primary ack alone; it must be a fenced, one-way judgment.
	peerDead func() bool
	// selfDead, when non-nil, reports this node's own store has
	// fail-stopped, releasing must-succeed local apply loops.
	selfDead func() bool

	// mu guards the snapshot fields below for Status() readers on other
	// goroutines; protocol-path writes hold both the replication lock
	// and (briefly) mu. Never held across store operations.
	mu          sync.Mutex
	epoch       uint64
	seq         uint64 // last sequence number confirmed by the backup
	lastApplied uint64 // backup role: last sequence applied this epoch
	primary     bool
	resyncing   bool
	resyncEpoch uint64
	lastResync  int64 // unix seconds; 0 = never
	// window is the catch-up window's authoritative name set per user
	// (backup role, volatile): Commit deletes everything outside it.
	window map[uint64]map[string]bool

	stop     chan struct{}
	stopOnce sync.Once
}

// NewNode builds a replica over an initialized mailboat and its store,
// reading the persisted epoch from the .repl meta-directory. The store
// must include MetaDir in its directory layout.
func NewNode(t gfs.T, id int, mb *mailboat.Mailboat, sys gfs.System, cfg Config) *Node {
	nd := &Node{id: id, mb: mb, sys: sys, cfg: cfg, stop: make(chan struct{})}
	nd.lock = sys.NewLock(t, nodeLocks.Name(uint64(id)))
	nd.epoch = readEpoch(t, sys)
	nd.cfg.Metrics.EpochSet(nd.epoch)
	nd.cfg.Metrics.RoleSet(false)
	return nd
}

// SetPeer wires the transport to the peer and the two failure
// detectors (either may be nil).
func (nd *Node) SetPeer(peer Transport, peerDead, selfDead func() bool) {
	nd.peer = peer
	nd.peerDead = peerDead
	nd.selfDead = selfDead
}

// Mailboat returns the node's library handle (local pickups run on the
// primary's).
func (nd *Node) Mailboat() *mailboat.Mailboat { return nd.mb }

// Shutdown stops the node's retry loops: any in-flight operation
// observes the signal at its next pause and aborts with OpFailed
// instead of sleeping on. Idempotent.
func (nd *Node) Shutdown() {
	nd.stopOnce.Do(func() { close(nd.stop) })
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
	PeerDead       bool   `json:"peer_dead"`
	LastResyncUnix int64  `json:"last_resync_unix"`
}

// Status returns the node's current snapshot.
func (nd *Node) Status() Status {
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
		PeerDead:       nd.peerGone(),
		LastResyncUnix: nd.lastResync,
	}
}

// Epoch returns the node's current epoch.
func (nd *Node) Epoch() uint64 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.epoch
}

// setEpoch updates the epoch snapshot (caller holds the replication
// lock; mu covers Status readers).
func (nd *Node) setEpoch(e uint64) {
	nd.mu.Lock()
	nd.epoch = e
	nd.mu.Unlock()
	nd.cfg.Metrics.EpochSet(e)
}

func (nd *Node) setSeq(s uint64) {
	nd.mu.Lock()
	nd.seq = s
	nd.mu.Unlock()
}

func (nd *Node) setLastApplied(s uint64) {
	nd.mu.Lock()
	nd.lastApplied = s
	nd.mu.Unlock()
}

func (nd *Node) setResyncing(on bool, epoch uint64) {
	nd.mu.Lock()
	nd.resyncing, nd.resyncEpoch = on, epoch
	nd.mu.Unlock()
}

// SetPrimary flips the node's believed role (Pair and the deployment
// wiring call it; promotion via Promote also does).
func (nd *Node) SetPrimary(p bool) {
	nd.mu.Lock()
	nd.primary = p
	nd.mu.Unlock()
	nd.cfg.Metrics.RoleSet(p)
}

func (nd *Node) markResynced(t gfs.T) {
	unix := int64(0)
	if _, modeled := t.(*machine.T); !modeled {
		unix = time.Now().Unix()
	}
	nd.mu.Lock()
	nd.lastResync = unix
	nd.mu.Unlock()
	nd.cfg.Metrics.LastResyncSet(unix)
}

// peerGone reports the failure detector's fenced-dead verdict (a nil
// peer counts as gone: the node is running solo).
func (nd *Node) peerGone() bool {
	if nd.peer == nil {
		return true
	}
	return nd.peerDead != nil && nd.peerDead()
}

func (nd *Node) selfDeadNow() bool {
	return nd.selfDead != nil && nd.selfDead()
}

func (nd *Node) maxCallRetries() int {
	if nd.cfg.MaxCallRetries > 0 {
		return nd.cfg.MaxCallRetries
	}
	return 6
}

const (
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
