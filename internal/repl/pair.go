package repl

import (
	"repro/internal/gfs"
	"repro/internal/mailboat"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// Pair composes two Nodes over a netmodel.Net into one mailboat-shaped
// service: the client surface the replicated checker scenarios (and the
// deployment's failover logic, in spirit) drive. It owns the routing
// decisions a real deployment splits between the client library and the
// operator: which node is primary, when a dead primary's backup is
// promoted, and where each user's pickup session lock lives.
//
// Failover rule: the backup is promotable ONLY when it is at the
// primary's epoch and not mid-resync. Because every catch-up persists
// the primary's bumped epoch BEFORE the first snapshot frame, a backup
// that is mid-catch-up (holding who-knows-which half of the snapshot)
// is always epoch-behind and therefore never promoted — the epoch gate
// doubles as the promotion-safety predicate.
type Pair struct {
	Nodes [2]*Node
	F     [2]*gfs.Faulty
	Net   *netmodel.Net

	sys   [2]gfs.System
	mbcfg mailboat.Config
	rcfg  Config

	primary int
	// lockAt[user] is the node index holding user's pickup session lock
	// (-1 = none). A failover between Pickup and Delete moves the
	// session: the new primary re-acquires and re-lists before deleting.
	lockAt []int
	// stale latches a failed recovery resync: the backup is behind and
	// the pair degraded until the next recovery.
	stale bool
}

// ReplDirs is the store layout for a replica: the mailboat layout plus
// the replication meta-directory.
func ReplDirs(cfg mailboat.Config) []string {
	return append(mailboat.Dirs(cfg), MetaDir)
}

// linkTransport sends to a fixed destination endpoint of a Net.
type linkTransport struct {
	net *netmodel.Net
	dst int
}

func (l *linkTransport) Call(t gfs.T, req []byte) ([]byte, netmodel.Outcome) {
	return l.net.Call(t, l.dst, req)
}

// NewPair initializes both stores (mailboat.Init) and wires the nodes
// over net. Node 0 starts as primary. sys[i] must be the fault-wrapped
// system whose fail-stop latch is f[i]; the same index is bound as
// net endpoint i.
func NewPair(t gfs.T, sys [2]gfs.System, f [2]*gfs.Faulty, net *netmodel.Net,
	mbcfg mailboat.Config, rcfg Config) *Pair {
	p := &Pair{F: f, Net: net, sys: sys, mbcfg: mbcfg, rcfg: rcfg}
	for i := 0; i < 2; i++ {
		mb := mailboat.Init(t, nil, sys[i], mbcfg)
		p.Nodes[i] = NewNode(t, i, mb, sys[i], rcfg)
	}
	p.wire(net)
	p.lockAt = make([]int, mbcfg.Users)
	for u := range p.lockAt {
		p.lockAt[u] = -1
	}
	p.Nodes[0].SetPrimary(true)
	return p
}

// wire binds the net handlers and peers. The handler closures route
// through p.Nodes[i] at call time, so nodes rebuilt by Recover keep
// receiving frames without rebinding.
func (p *Pair) wire(net *netmodel.Net) {
	for i := 0; i < 2; i++ {
		i := i
		net.Bind(i, func(t gfs.T, req []byte) []byte {
			return p.Nodes[i].HandleRequest(t, req)
		})
		other := 1 - i
		p.Nodes[i].SetPeer(
			&linkTransport{net: net, dst: other},
			func() bool { return p.F[other].FailStopped() },
			func() bool { return p.F[i].FailStopped() },
		)
	}
}

// Primary returns the current primary's index.
func (p *Pair) Primary() int { return p.primary }

// Degraded reports whether the pair cannot currently tolerate losing
// the primary: a node is fail-stopped, the backup never caught up after
// recovery, or the epochs disagree (a catch-up is incomplete). The
// deployment's /healthz maps this to 503.
func (p *Pair) Degraded() bool {
	if p.stale || p.F[0].FailStopped() || p.F[1].FailStopped() {
		return true
	}
	b := p.Nodes[1-p.primary].Status()
	return b.Resyncing || b.Epoch != p.Nodes[p.primary].Epoch()
}

// failover promotes the backup after the primary fail-stopped. False
// when the backup is dead too, or unpromotable (epoch-behind or
// mid-resync — it may hold partial state and must not serve).
func (p *Pair) failover(t gfs.T) bool {
	old := p.primary
	nw := 1 - old
	if p.F[nw].FailStopped() {
		return false
	}
	st := p.Nodes[nw].Status()
	if st.Resyncing || st.Epoch != p.Nodes[old].Epoch() {
		trace.Event(t, "repl: backup unpromotable (epoch %d vs %d, resyncing=%v)",
			st.Epoch, p.Nodes[old].Epoch(), st.Resyncing)
		return false
	}
	if !p.Nodes[nw].Promote(t) {
		return false
	}
	p.Nodes[old].SetPrimary(false)
	p.primary = nw
	trace.Event(t, "repl: failover to node %d", nw)
	return true
}

// ensureLivePrimary returns the index of a primary whose store has not
// latched dead, failing over if needed; ok is false when no node can
// lead. Concurrent operations race on the role (the model interleaves
// them), so the loop re-reads p.primary after every attempt rather
// than assuming its first read stayed true.
func (p *Pair) ensureLivePrimary(t gfs.T) (int, bool) {
	for i := 0; i < 2; i++ {
		cur := p.primary
		if !p.F[cur].FailStopped() {
			return cur, true
		}
		if !p.failover(t) {
			return cur, false
		}
	}
	return p.primary, false
}

// Deliver stores msg in user's mailbox through the replicated
// protocol, picking names the way the plain library does. answered
// reports whether the client got an answer at all: (true, true) is an
// acknowledged delivery, (false, true) a definite no-op (the mailbox
// pair is untouched), and answered == false means the outcome is
// indeterminate — the operation is durably applied on a node the pair
// cannot currently promote, so no truthful answer exists and the
// caller's op stays pending.
//
// A primary that dies mid-operation is never retried by re-executing:
// once the backup has durably acknowledged, the operation is COMPLETE
// there, and the backup's copy may legitimately be consumed (picked up
// and deleted by a concurrent session after its own failover) before
// any retry could run — a re-apply would resurrect a deleted message.
// Instead, the delivery counts as acknowledged exactly when the acking
// backup is (or becomes) the primary.
func (p *Pair) Deliver(t gfs.T, user uint64, msg []byte) (delivered, answered bool) {
	for try := 0; try < mailboat.NameAttempts; try++ {
		cur, ok := p.ensureLivePrimary(t)
		if !ok {
			return false, true // nothing was attempted anywhere
		}
		name := mailboat.MsgName(t.RandUint64(p.mbcfg.RandBound))
		switch p.Nodes[cur].DeliverNamed(t, user, name, msg) {
		case OpOK:
			return true, true
		case OpNameTaken:
			// collision: next try draws a fresh name
		case OpIndeterminate:
			// Complete on the acking backup iff that backup leads (or can
			// be promoted now). The fail-stop latch makes this exact: an
			// ack-alone operation's dead peer can never pass failover.
			if p.primary != cur || p.failover(t) {
				return true, true
			}
			return false, false
		case OpFailed:
			if p.F[cur].FailStopped() {
				continue // definite no-op; next try fails over first
			}
			return false, true
		}
	}
	return false, true
}

// Pickup lists user's mailbox on the primary and leaves the session
// lock held there for the Delete/Unlock that follows. ok is false when
// no node can serve (primary dead and the backup unpromotable): the
// client never got an answer, so no spec transition happened.
func (p *Pair) Pickup(t gfs.T, user uint64) (msgs []mailboat.Message, ok bool) {
	for hop := 0; hop < 3; hop++ {
		cur, live := p.ensureLivePrimary(t)
		if !live {
			return nil, false
		}
		nd := p.Nodes[cur]
		msgs = nd.Mailboat().Pickup(t, nil, user)
		// The latch check must be against the node that SERVED the
		// listing (cur, not a re-read of p.primary — a concurrent
		// operation may have failed over while we listed).
		if p.F[cur].FailStopped() {
			// The listing cannot be trusted (reads were failing); drop
			// the lock and try the survivor.
			nd.Mailboat().Unlock(t, nil, user)
			if p.primary != cur || p.failover(t) {
				continue
			}
			return nil, false
		}
		p.lockAt[user] = cur
		return msgs, true
	}
	return nil, false
}

// Delete removes message id from user's mailbox (the session lock from
// Pickup must be held). (true, true) means removed, (false, true)
// means the mailbox pair is unchanged, and answered == false means the
// outcome is indeterminate (as in Deliver). After a failover the
// session lock moves: the new primary re-acquires and re-lists, and an
// id that is already gone there reports true — the replicated delete
// had reached the backup before the old primary died.
func (p *Pair) Delete(t gfs.T, user uint64, id string) (removed, answered bool) {
	for hop := 0; hop < 3; hop++ {
		cur, ok := p.ensureLivePrimary(t)
		if !ok {
			return false, true // nothing was attempted anywhere
		}
		nd := p.Nodes[cur]
		if p.lockAt[user] != cur {
			if old := p.lockAt[user]; old >= 0 {
				p.Nodes[old].Mailboat().Unlock(t, nil, user)
			}
			msgs := nd.Mailboat().Pickup(t, nil, user)
			p.lockAt[user] = cur
			found := false
			for _, m := range msgs {
				if m.ID == id {
					found = true
					break
				}
			}
			if !found {
				return true, true
			}
		}
		switch nd.DeleteNamed(t, user, id) {
		case OpOK:
			return true, true
		case OpIndeterminate:
			if p.primary != cur || p.failover(t) {
				return true, true
			}
			return false, false
		case OpFailed:
			if p.F[cur].FailStopped() {
				continue // definite no-op; next hop fails over first
			}
			return false, true
		}
	}
	return false, true
}

// Unlock releases user's pickup session lock wherever it is held.
func (p *Pair) Unlock(t gfs.T, user uint64) {
	at := p.lockAt[user]
	if at < 0 {
		at = p.primary
	}
	p.Nodes[at].Mailboat().Unlock(t, nil, user)
	p.lockAt[user] = -1
}

// Recover rebuilds the pair after a site crash (the model's whole-site
// power cut): revive fail-stopped stores, run mailboat recovery on each
// node, re-read persisted epochs, elect the higher-epoch node primary
// (it fenced the other), and ALWAYS run a catch-up resync — lastApplied
// is volatile, so the backup cannot prove it is current. The closing
// pings give any frame still in the network (in-flight frames survive a
// site reboot) its delivery opportunity under the checker, AFTER the
// new epoch is in place to fence it.
func (p *Pair) Recover(t gfs.T) {
	for i := range p.F {
		if p.F[i].FailStopped() {
			p.F[i].Revive()
		}
	}
	for i := 0; i < 2; i++ {
		mb := mailboat.Recover(t, nil, p.sys[i], p.mbcfg, nil)
		p.Nodes[i] = NewNode(t, i, mb, p.sys[i], p.rcfg)
	}
	p.wire(p.Net)
	p.primary = 0
	if p.Nodes[1].Epoch() > p.Nodes[0].Epoch() {
		p.primary = 1
	}
	p.Nodes[p.primary].SetPrimary(true)
	for u := range p.lockAt {
		p.lockAt[u] = -1
	}
	p.stale = !p.Nodes[p.primary].Resync(t)
	p.Nodes[p.primary].Ping(t)
	p.Nodes[1-p.primary].Ping(t)
}
