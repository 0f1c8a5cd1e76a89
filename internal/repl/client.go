package repl

import (
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/mailboat"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// This file is the primary role: the remote-first client leg. The ack
// discipline in one line: REPLICATE, THEN APPLY, THEN ACK. A definite
// replication failure leaves both stores untouched; an indeterminate
// one is retried under the same sequence number until the backup's
// duplicate detection resolves it.

// Replication is stages that hand each other value tokens, like
// mailboat's delivery: the local apply takes the replicated token that
// only replicate mints, and a catch-up's legs and Promote's role switch
// take the fenced token that only fence mints. A seeded bug forges the
// token it has not earned, in bugs.go and nowhere else (mailboat's
// TestTokensForgedOnlyInBugs checks this package too).

// replicated is an operation the backup has durably applied, or one the
// primary may apply alone because the peer is fenced dead: all the
// local apply accepts, so applying before replicating needs a forgery.
type replicated struct{}

// fenced is an epoch this node has durably recorded and adopted, its
// sequence space reset. A catch-up streams under it and Promote's role
// switch takes it, so neither can run in an epoch that frames from
// before it still carry.
type fenced struct{ epoch uint64 }

// fenceStage is fence's shape. The entry points that may run a catch-up
// take it as a value so the pair's Variant can hand in a forgery.
type fenceStage func(nd *Node, t gfs.T) (fenced, bool)

// DeliverNamed runs the replicated delivery of msg to user under the
// caller-chosen mailbox name. OpNameTaken means the name is in use —
// pick a fresh name and call again. The name is pre-checked free
// inside the replication lock, and any existing entry is a collision,
// even a byte-identical one: two identical messages must insert twice,
// so the idempotence shortcut in the store layer is reserved for
// replays of the SAME (epoch, seq)-tagged frame, never for a fresh
// delivery that happens to repeat another's contents.
func (nd *Node) DeliverNamed(t gfs.T, user uint64, name string, msg []byte) OpResult {
	return nd.deliverNamed(t, user, name, msg, (*Node).fence)
}

// deliverNamed is DeliverNamed running fence for any catch-up the
// replication needs.
func (nd *Node) deliverNamed(t gfs.T, user uint64, name string, msg []byte, fence fenceStage) OpResult {
	sp := trace.Enter(t, "repl.deliver")
	defer trace.Exit(t, sp)
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	if _, present := nd.mb.ReadMessage(t, user, name); present {
		return OpNameTaken
	}
	rep, res := nd.replicate(t, request{kind: kDeliver, user: user, name: name, body: msg}, fence)
	if res != OpOK {
		return res
	}
	if !nd.localDeliverMust(t, user, name, msg, rep) {
		// The backup holds the message durably but our own store is
		// dying. The operation must not be re-executed — the backup's
		// copy may legitimately be consumed (picked up and deleted)
		// before any retry runs, and a re-apply would resurrect it.
		return OpIndeterminate
	}
	return OpOK
}

// DeleteNamed runs the replicated removal of user's message name.
func (nd *Node) DeleteNamed(t gfs.T, user uint64, name string) OpResult {
	return nd.deleteNamed(t, user, name, (*Node).fence)
}

// deleteNamed is DeleteNamed running fence for any catch-up the
// replication needs.
func (nd *Node) deleteNamed(t gfs.T, user uint64, name string, fence fenceStage) OpResult {
	sp := trace.Enter(t, "repl.delete")
	defer trace.Exit(t, sp)
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	rep, res := nd.replicate(t, request{kind: kDelete, user: user, name: name}, fence)
	if res != OpOK {
		return res
	}
	if !nd.localDeleteMust(t, user, name, rep) {
		return OpIndeterminate
	}
	return OpOK
}

// replicate is the stage before the local apply: it resolves r against
// the backup and mints replicated, which counts only with OpOK.
func (nd *Node) replicate(t gfs.T, r request, fence fenceStage) (replicated, OpResult) {
	res := nd.resolve(t, r, fence)
	if res == OpFailed {
		nd.cfg.Metrics.ReplicateObserved("failed")
	}
	return replicated{}, res
}

// resolve resolves one (epoch, seq)-tagged operation against the
// backup. It returns OpOK only once the backup has durably applied the
// operation (or the failure detector has fenced the backup dead, in
// which case the primary proceeds alone — the fail-stop latch
// guarantees that store never serves again without a catch-up resync).
//
// Outcome taxonomy on the retry loop:
//
//	Lost          definite no — retry; exhausting retries without ever
//	              seeing Unknown aborts with NOTHING applied anywhere
//	              (a failed replication RPC is never an ack barrier).
//	Unknown       maybe applied — MUST retry the same seq until the
//	              outcome resolves; the backup's duplicate detection
//	              makes the retry idempotent. Native threads cap this
//	              (repl_indeterminate_total, the at-least-once hazard);
//	              modeled threads resolve within the fault budget.
//	StStaleEpoch  with the backup ahead: we are fenced (it promoted);
//	              abort. With our own epoch merely newer than the
//	              frame's (an in-op resync): retag and retry.
//	StNeedResync  the backup is behind or rebooted: run the catch-up,
//	              then retry in the new epoch's sequence space.
//	StStoreFailed transient backup store refusal: retry same seq.
func (nd *Node) resolve(t gfs.T, r request, fence fenceStage) OpResult {
	_, modeled := t.(*machine.T)
	r.seq = nd.seq + 1
	everUnknown := false
	resyncs := 0
	for attempt := 1; ; attempt++ {
		if nd.peerGone() {
			// Fenced dead: ack alone. Sound because the fail-stop latch
			// (or the deployment's refused-connection streak after which
			// an operator replaces the node) means that store rejoins
			// only through a catch-up resync, which discards whatever
			// partial state it holds.
			trace.Event(t, "repl: peer dead, proceeding alone")
			nd.cfg.Metrics.AckAloneInc()
			nd.setSeq(r.seq)
			return OpOK
		}
		r.epoch = nd.epoch
		resp, oc := nd.peer.Call(t, encodeReq(r))
		if oc == netmodel.Delivered {
			st, repoch := decodeResp(resp)
			switch st {
			case StOK:
				nd.setSeq(r.seq)
				nd.cfg.Metrics.ReplicateObserved("ok")
				return OpOK
			case StNameTaken:
				return OpNameTaken // seq was not consumed; reusable
			case StStaleEpoch:
				if repoch > nd.epoch {
					// The backup fenced us out: it promoted (or committed
					// a catch-up we know nothing of). Stop acking.
					trace.Event(t, "repl: fenced by epoch %d > %d", repoch, nd.epoch)
					return OpFailed
				}
				// Our own epoch advanced mid-operation; retag and retry.
			case StNeedResync:
				resyncs++
				if resyncs > 3 || !nd.resyncLocked(t, fence) {
					return OpFailed
				}
				r.seq = nd.seq + 1 // fresh epoch, fresh sequence space
				continue
			case StStoreFailed, StBadRequest:
				nd.cfg.Metrics.ReplicateObserved("retry")
			}
		} else {
			if oc == netmodel.Unknown {
				everUnknown = true
			}
			nd.cfg.Metrics.ReplicateObserved("retry")
		}
		// Out of definite failures — neither store was touched: the
		// no-ack-barrier property — or, on a native thread, out of
		// indeterminate ones, or shutting down.
		definite := !everUnknown && attempt >= nd.maxCallRetries()
		capped := everUnknown && !modeled && attempt >= indetRetries
		if definite || capped || !nd.retryPause(t, attempt) {
			if everUnknown {
				nd.cfg.Metrics.IndeterminateInc()
			}
			return OpFailed
		}
	}
}

// localDeliverMust applies the delivery locally after the backup
// confirmed it — past the point of no return, so transient local
// faults are retried until the store either applies or is dead.
func (nd *Node) localDeliverMust(t gfs.T, user uint64, name string, msg []byte, _ replicated) bool {
	for attempt := 1; ; attempt++ {
		switch nd.mb.DeliverAs(t, user, name, msg) {
		case mailboat.Applied, mailboat.AlreadyApplied:
			return true
		case mailboat.NameTaken:
			// Cannot happen in-protocol: the backup accepted the name,
			// and local publishes only follow backup acceptance. Fail
			// loudly under the checker.
			if mt, ok := t.(*machine.T); ok {
				mt.Failf("repl: local name %q taken after backup accepted it", name)
			}
			return false
		}
		if nd.applyGivesUp(t, attempt) {
			return false
		}
	}
}

// applyGivesUp reports whether a must-succeed local apply stops after
// failed attempt: the store fail-stopped, the node is shutting down, or
// a native thread has spent its eight attempts.
func (nd *Node) applyGivesUp(t gfs.T, attempt int) bool {
	_, modeled := t.(*machine.T)
	return nd.selfDeadNow() || !nd.retryPause(t, attempt) || (!modeled && attempt >= 8)
}

// localDeleteMust is localDeliverMust for deletes.
func (nd *Node) localDeleteMust(t gfs.T, user uint64, name string, _ replicated) bool {
	for attempt := 1; ; attempt++ {
		switch nd.mb.DeleteAs(t, user, name) {
		case mailboat.Applied, mailboat.AlreadyApplied:
			return true
		}
		if nd.applyGivesUp(t, attempt) {
			return false
		}
	}
}

// Resync runs a catch-up: bump and persist OUR epoch first (the fence
// — in-flight frames from before this moment now carry a stale epoch),
// then stream the full authoritative state to the backup and commit.
// Returns false when the catch-up could not complete; the backup is
// then stale and the pair degraded until the next attempt.
func (nd *Node) Resync(t gfs.T) bool { return nd.resync(t, (*Node).fence) }

// resync is Resync starting with fence.
func (nd *Node) resync(t gfs.T, fence fenceStage) bool {
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	return nd.resyncLocked(t, fence)
}

func (nd *Node) resyncLocked(t gfs.T, fence fenceStage) bool {
	sp := trace.Enter(t, "repl.resync")
	defer trace.Exit(t, sp)
	f, ok := fence(nd, t)
	ok = ok && nd.stream(t, f)
	nd.cfg.Metrics.ResyncObserved(ok)
	if ok {
		nd.markResynced(t)
		trace.Event(t, "repl: resync complete at epoch %d", f.epoch)
	}
	return ok
}

// fence is the stage every catch-up and promotion starts with: persist
// epoch e+1 — retried against transient store faults, given up when the
// store is fail-stopped or eight attempts are spent — adopt it, reset
// the sequence space, and mint fenced.
func (nd *Node) fence(t gfs.T) (fenced, bool) {
	e := nd.epoch + 1
	for attempt := 1; !persistEpoch(t, nd.sys, e); attempt++ {
		if nd.selfDeadNow() || !nd.retryPause(t, attempt) || attempt == 8 {
			return fenced{}, false
		}
	}
	nd.setEpoch(e)
	nd.setSeq(0)
	return fenced{e}, true
}

// stream is a catch-up's three legs — begin, one put per message,
// commit — every frame tagged with the fenced epoch.
func (nd *Node) stream(t gfs.T, f fenced) bool {
	if !nd.rcallOK(t, request{kind: kResyncBegin, epoch: f.epoch}) {
		return false
	}
	for u := uint64(0); u < nd.mb.Users(); u++ {
		for _, m := range nd.mb.ReadBox(t, u) {
			put := request{kind: kResyncPut, epoch: f.epoch, user: u, name: m.ID, body: []byte(m.Contents)}
			if !nd.rcallOK(t, put) {
				return false
			}
		}
	}
	return nd.rcallOK(t, request{kind: kResyncCommit, epoch: f.epoch})
}

// rcallOK pushes one idempotent resync leg until it answers StOK,
// within a retry budget. Lost, Unknown and transient store refusals
// all retry — every resync frame is safe to repeat.
func (nd *Node) rcallOK(t gfs.T, r request) bool {
	for attempt := 1; ; attempt++ {
		if nd.peerGone() {
			return false
		}
		resp, oc := nd.peer.Call(t, encodeReq(r))
		if oc == netmodel.Delivered {
			st, _ := decodeResp(resp)
			if st == StOK {
				return true
			}
			if st != StStoreFailed {
				trace.Event(t, "repl: resync leg refused: %s", statusName(st))
				return false
			}
		}
		if attempt >= nd.maxCallRetries()*2 {
			return false
		}
		if !nd.retryPause(t, attempt) {
			return false
		}
	}
}

// Promote makes this node the primary of a new epoch: fence (persist
// the bumped epoch, fencing the old primary's in-flight frames, and
// reset the sequence space), then assume the role. Used at failover; the
// caller must have established that this node is safe to promote (in
// sync: same epoch as the failed primary and not mid-resync).
func (nd *Node) Promote(t gfs.T) bool {
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	f, ok := nd.fence(t)
	if ok {
		nd.lead(t, f)
	}
	return ok
}

// lead is Promote's role switch, in the epoch fence just adopted.
func (nd *Node) lead(t gfs.T, f fenced) {
	nd.setLastApplied(0)
	nd.SetPrimary(true)
	nd.cfg.Metrics.FailoverInc()
	trace.Event(t, "repl: promoted to primary at epoch %d", f.epoch)
}

// Ping probes the peer once (no retries): liveness, epoch — and in the
// model a delivery opportunity for reordered frames still in flight.
// True means the peer answered StOK at our (epoch, seq): alive AND in
// sync.
func (nd *Node) Ping(t gfs.T) bool {
	ok, _ := nd.PingCheck(t)
	return ok
}

// PingCheck is the seq-aware probe behind Ping. ok means the peer
// answered StOK — alive and caught up to our sequence space. behind
// means it answered StNeedResync: its volatile apply cursor trails our
// seq (the rejoined-backup signature — a reboot zeroes the cursor).
// The deployment's pinger runs a catch-up resync on a behind verdict
// so the staleness window is bounded by the ping period instead of by
// the arrival of the next replicated operation. behind is deliberately
// NOT set on StStaleEpoch: that answer means the peer fenced us (it
// promoted), and a resync from the fenced side must stay a failing,
// visible condition — never an automatic epoch climb that could
// eventually overwrite the new primary.
func (nd *Node) PingCheck(t gfs.T) (ok, behind bool) {
	if nd.peer == nil {
		return false, false
	}
	nd.mu.Lock()
	r := request{kind: kPing, epoch: nd.epoch, seq: nd.seq}
	nd.mu.Unlock()
	resp, oc := nd.peer.Call(t, encodeReq(r))
	if oc != netmodel.Delivered {
		return false, false
	}
	st, _ := decodeResp(resp)
	return st == StOK, st == StNeedResync
}
