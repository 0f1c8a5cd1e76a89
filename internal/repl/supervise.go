package repl

import "repro/internal/gfs"

// This file is replication supervision, one piece of checked code with
// two callers: Pair.Recover runs the catch-up after every site crash, and
// the daemon runs it at boot and then a tick once per ping period
// (Node.Supervise). Whether the pair is in sync is one verdict, degraded:
// Pair.Degraded, Pair.failover's promotability test and the daemon's
// /healthz (Node.Health) all read it.

// Health is a node's replication verdict, what /healthz serves: its
// Status, its transport's reachability, and degraded over both. The admin
// surface answers 503 with this JSON while Degraded, so orchestrators pull
// the instance and operators see the stuck half at a glance.
type Health struct {
	Status
	PeerReachable bool `json:"peer_reachable"`
	Degraded      bool `json:"degraded"`
}

// degraded is the one in-sync verdict, from the side of the node whose
// snapshot is st: the pair cannot tolerate losing that node while a
// catch-up is in flight on it, while it is stale (it acked alone, its last
// catch-up failed, or its peer last answered fenced or behind), while
// behind — the model's reading of the peer itself: in another epoch or
// mid-catch-up — and, on the primary, while the peer is fenced dead or
// unreachable.
func degraded(st Status, behind, reachable bool) bool {
	return st.Resyncing || st.Stale || behind || (st.Role == "primary" && (st.PeerDead || !reachable))
}

// Health is the node's own verdict: what its supervisor recorded, and its
// transport's reachability (a transport that cannot tell counts as
// reachable; a node with no peer counts it fenced dead).
func (nd *Node) Health() Health {
	st, reachable := nd.Status(), true
	if r, ok := nd.peer.(interface{ Reachable() bool }); ok {
		reachable = r.Reachable()
	}
	return Health{Status: st, PeerReachable: reachable, Degraded: degraded(st, false, reachable)}
}

// CatchUp is the boot catch-up: a resync in a freshly fenced epoch —
// lastApplied is volatile, so no backup can prove it is current — its
// outcome recorded (a failure leaves the node stale until a catch-up
// completes), then one ping: under the checker the delivery opportunity of
// frames still in flight, after the new fence is up to turn them away.
func (nd *Node) CatchUp(t gfs.T) { nd.catchUp(t, (*Node).fence) }

// catchUp is CatchUp starting with fence.
func (nd *Node) catchUp(t gfs.T, fence fenceStage) {
	nd.setStale(!nd.resync(t, fence))
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
