package repl

import (
	"repro/internal/gfs"
	"repro/internal/machine"
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
	Net   *netmodel.Net

	sys   [2]gfs.System
	mbcfg mailboat.Config
	// v is the protocol under check, every field set: production's
	// wherever the row does not override it.
	v Variant

	primary int
	// lockAt[user] is the node index holding user's pickup session lock
	// (-1 = none). A failover between Pickup and Delete moves the
	// session: the new primary re-acquires and re-lists before deleting.
	lockAt []int

	// primary and lockAt are shared by the client threads: each access
	// declares itself on m (DESIGN.md "Sleep sets"), as objects
	// obj+primaryObj and obj+lockAtObj+user. Nodes and sys are written
	// only by NewPair and Recover, each alone in its era.
	m   *machine.Machine
	obj machine.Obj
}

// The footprint names of a Pair's shared fields, offsets from Pair.obj.
const (
	primaryObj machine.Obj = iota
	lockAtObj              // user u's session is lockAtObj+u
)

// touch declares an access to a shared field.
func (p *Pair) touch(o machine.Obj, md machine.Mode) { p.m.Touch(p.obj+o, md) }

// leader reads the primary's index.
func (p *Pair) leader() int {
	p.touch(primaryObj, machine.Read)
	return p.primary
}

// setLeader makes node i the primary.
func (p *Pair) setLeader(i int) {
	p.touch(primaryObj, machine.Write)
	p.primary = i
}

// sessionAt is the node holding user's session lock, -1 for none.
func (p *Pair) sessionAt(user uint64) int {
	p.touch(lockAtObj+machine.Obj(user), machine.Read)
	return p.lockAt[user]
}

// setSessionAt records where user's session lock is held.
func (p *Pair) setSessionAt(user uint64, at int) {
	p.touch(lockAtObj+machine.Obj(user), machine.Write)
	p.lockAt[user] = at
}

// ReplDirs is the store layout for a replica: the mailboat layout plus
// the replication meta-directory.
func ReplDirs(cfg mailboat.Config) []string {
	return append(mailboat.Dirs(cfg), MetaDir)
}

// linkTransport sends to peer's endpoint dst of a Net. Its failure
// detector is exact: the peer node's own store latch.
type linkTransport struct {
	net  *netmodel.Net
	dst  int
	peer *Node
}

func (l *linkTransport) Call(t gfs.T, req []byte) ([]byte, netmodel.Outcome) {
	return l.net.Call(t, l.dst, req)
}

// PeerDead reports whether the peer's store has fail-stopped.
func (l *linkTransport) PeerDead() bool { return l.peer.dead() }

// NewPair initializes both stores (mailboat.Init) and wires the nodes
// over net, running the protocol v. Node 0 starts as primary. Each node
// reads its fail-stop latch from sys[i]'s stack itself; the same index is
// bound as net endpoint i.
func NewPair(t gfs.T, sys [2]gfs.System, net *netmodel.Net, mbcfg mailboat.Config, v Variant) *Pair {
	if v.DeliverNamed == nil {
		v.DeliverNamed = (*Node).deliverNamed
	}
	if v.Fence == nil {
		v.Fence = (*Node).fence
	}
	p := &Pair{Net: net, sys: sys, mbcfg: mbcfg, v: v}
	p.m = t.(*machine.T).Machine() // the Net is model-only, and so is the Pair
	p.obj = p.m.Objects(uint64(lockAtObj) + mbcfg.Users)
	for i := 0; i < 2; i++ {
		mb := mailboat.Init(t, nil, sys[i], mbcfg)
		p.Nodes[i] = NewNode(t, i, mb, sys[i], Config{})
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
// receiving frames without rebinding; Recover rewires the peers.
func (p *Pair) wire(net *netmodel.Net) {
	for i := 0; i < 2; i++ {
		i := i
		net.Bind(i, func(t gfs.T, req []byte) []byte {
			return p.Nodes[i].HandleRequest(t, req)
		})
		other := 1 - i
		p.Nodes[i].SetPeer(&linkTransport{net: net, dst: other, peer: p.Nodes[other]})
	}
}

// Primary returns the current primary's index.
func (p *Pair) Primary() int { return p.leader() }

// Degraded reports whether the pair cannot currently tolerate losing
// the primary: the verdict (degraded) says so from its side — its store
// dead, or reading the backup itself: in another epoch or mid-catch-up.
// The deployment's /healthz maps the primary's own verdict to 503.
func (p *Pair) Degraded() bool {
	cur := p.leader()
	return p.Nodes[cur].degraded(func(st Status) bool {
		b := p.Nodes[1-cur].Status()
		return b.Resyncing || b.Epoch != st.Epoch
	}, true).Degraded
}

// failover promotes the backup after the primary fail-stopped. False
// when the verdict, from the backup's side against the old primary's
// epoch, says degraded: its store is dead too, or it is epoch-behind or
// mid-resync, and may hold partial state.
func (p *Pair) failover(t gfs.T) bool {
	old := p.leader()
	nw := 1 - old
	var e uint64
	h := p.Nodes[nw].degraded(func(st Status) bool {
		e = p.Nodes[old].Epoch()
		return st.Epoch != e
	}, true)
	if h.Degraded {
		if !h.StoreDead {
			trace.Event(t, "repl: backup unpromotable (epoch %d vs %d, resyncing=%v)", h.Epoch, e, h.Resyncing)
		}
		return false
	}
	if !p.Nodes[nw].Promote(t) {
		return false
	}
	p.Nodes[old].SetPrimary(false)
	p.setLeader(nw)
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
		cur := p.leader()
		if !p.Nodes[cur].dead() {
			return cur, true
		}
		if !p.failover(t) {
			return cur, false
		}
	}
	return p.leader(), false
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
		res := p.v.DeliverNamed(p.Nodes[cur], t, user, name, msg, p.v.Fence)
		if ok, answered, again := p.settle(t, cur, res); !again {
			return ok, answered
		}
	}
	return false, true
}

// settle is the client's answer to a replicated operation's outcome res
// on node cur; again means try once more: a name collision draws a fresh
// name, and a definite no-op on a dead primary fails over first.
func (p *Pair) settle(t gfs.T, cur int, res OpResult) (ok, answered, again bool) {
	switch res {
	case OpOK:
		return true, true, false
	case OpIndeterminate:
		// Complete on the acking backup iff that backup leads (or can be
		// promoted now). The fail-stop latch makes this exact: an
		// ack-alone operation's dead peer can never pass failover.
		done := p.leader() != cur || p.failover(t)
		return done, done, false
	case OpFailed:
		return false, true, p.Nodes[cur].dead()
	case OpUnknown:
		return false, false, false
	}
	return false, true, true
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
		if nd.dead() {
			// The listing cannot be trusted (reads were failing); drop
			// the lock and try the survivor.
			nd.Mailboat().Unlock(t, nil, user)
			if p.leader() != cur || p.failover(t) {
				continue
			}
			return nil, false
		}
		p.setSessionAt(user, cur)
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
		if old := p.sessionAt(user); old != cur {
			if old >= 0 {
				p.Nodes[old].Mailboat().Unlock(t, nil, user)
			}
			msgs := nd.Mailboat().Pickup(t, nil, user)
			p.setSessionAt(user, cur)
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
		if ok, answered, again := p.settle(t, cur, nd.deleteNamed(t, user, id, p.v.Fence)); !again {
			return ok, answered
		}
	}
	return false, true
}

// Unlock releases user's pickup session lock wherever it is held.
func (p *Pair) Unlock(t gfs.T, user uint64) {
	at := p.sessionAt(user)
	if at < 0 {
		at = p.leader()
	}
	p.Nodes[at].Mailboat().Unlock(t, nil, user)
	p.setSessionAt(user, -1)
}

// Recover rebuilds the pair after a site crash (the model's whole-site
// power cut) on the stores each node rebooted, sys[i] as in NewPair: run mailboat recovery on each node, re-read
// persisted epochs, elect the higher-epoch node primary (it fenced the
// other), and ALWAYS run the supervisor's catch-up (supervise.go), the
// daemon's boot catch-up. The backup's closing ping gives frames still
// in the network (in-flight frames survive a site reboot) one more
// delivery opportunity, AFTER the new epoch is in place to fence them.
func (p *Pair) Recover(t gfs.T, sys [2]gfs.System) {
	p.sys = sys
	for i := 0; i < 2; i++ {
		mb := mailboat.Recover(t, nil, p.sys[i], p.mbcfg, nil)
		p.Nodes[i] = NewNode(t, i, mb, p.sys[i], Config{})
	}
	p.wire(p.Net)
	cur := 0
	if p.Nodes[1].Epoch() > p.Nodes[0].Epoch() {
		cur = 1
	}
	p.setLeader(cur)
	p.Nodes[cur].SetPrimary(true)
	for u := range p.lockAt {
		p.setSessionAt(uint64(u), -1)
	}
	p.Nodes[cur].catchUp(t, p.v.Fence)
	p.Nodes[1-cur].ping(t)
}
