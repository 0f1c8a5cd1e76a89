package repl

import "repro/internal/gfs"

// This file is replication supervision, one piece of checked code with
// two callers: Pair.Recover runs the catch-up after every site crash, and
// the daemon runs it at boot and then a tick once per ping period
// (Node.Supervise). Whether the pair is in sync is one verdict, degraded,
// which reads the node's own store latch itself: Pair.Degraded,
// Pair.failover's promotability test and the daemon's /healthz
// (Node.Health) all read it.

// Health is a node's replication verdict, what /healthz serves: its
// Status, whether its own store fail-stopped, its transport's
// reachability, and degraded over all three. The admin surface answers
// 503 with this JSON while Degraded, so orchestrators pull the instance
// and operators see the stuck half at a glance.
type Health struct {
	Status
	StoreDead     bool `json:"store_dead"`
	PeerReachable bool `json:"peer_reachable"`
	Degraded      bool `json:"degraded"`
}

// degraded is the one in-sync verdict, from nd's side: the pair cannot
// tolerate losing nd while its own store is fail-stopped, while a
// catch-up is in flight on it, while it is stale (it acked alone, its
// last catch-up failed, or its peer last answered fenced or behind),
// while behind(st) — the model's reading of the peer against nd's
// snapshot st: in another epoch or mid-catch-up — and, on the primary,
// while the peer is fenced dead or unreachable. The latch is read first,
// and a dead node's snapshot not at all (Status stays zero).
func (nd *Node) degraded(behind func(st Status) bool, reachable bool) Health {
	if nd.dead() {
		return Health{StoreDead: true, PeerReachable: reachable, Degraded: true}
	}
	st := nd.Status()
	b := behind(st)
	return Health{Status: st, PeerReachable: reachable, Degraded: st.Resyncing || st.Stale || b || (st.Role == "primary" && (st.PeerDead || !reachable))}
}

// Health is the node's own verdict: what its supervisor recorded, its
// store's latch, and its transport's reachability (a transport that
// cannot tell counts as reachable; a node with no peer counts it fenced
// dead). A dead node's snapshot is served too: role and epoch still say
// which half died.
func (nd *Node) Health() Health {
	r, ok := nd.peer.(interface{ Reachable() bool })
	reachable := !ok || r.Reachable()
	h := nd.degraded(func(Status) bool { return false }, reachable)
	if h.StoreDead {
		h.Status = nd.Status()
	}
	return h
}

// CatchUp is the boot catch-up: a resync in a freshly fenced epoch —
// lastApplied is volatile, so no backup can prove it is current — its
// outcome recorded (a failure leaves the node stale until a catch-up
// completes), then one ping: under the checker the delivery opportunity of
// frames still in flight, after the new fence is up to turn them away.
func (nd *Node) CatchUp(t gfs.T) { nd.catchUp(t, (*Node).fence) }

// catchUp is CatchUp starting with fence: the locked catch-up body, then
// the ping.
func (nd *Node) catchUp(t gfs.T, fence fenceStage) {
	nd.lock.Acquire(t)
	nd.catchUpLocked(t, fence)
	nd.lock.Release(t)
	nd.ping(t)
}

// tick is one supervisor step on the primary: ping the peer, record a
// fenced or behind answer as stale, and run the catch-up, starting with
// fence, while stale — unless the peer did not answer, or fenced us:
// then it promoted, and a catch-up from the fenced side would climb
// epochs until it overwrote the new primary. An idle primary so re-syncs
// a rejoined backup within one ping period instead of waiting for the
// next replicated operation.
func (nd *Node) tick(t gfs.T, fence fenceStage) {
	st, answered := nd.ping(t)
	if answered && st != StOK {
		nd.setStale(true)
	}
	if answered && st != StStaleEpoch && nd.Status().Stale {
		nd.catchUp(t, fence)
	}
}
