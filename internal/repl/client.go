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

// DeliverNamed runs the replicated delivery of msg to user under the
// caller-chosen mailbox name. OpNameTaken means the name is in use —
// pick a fresh name and call again. The name is pre-checked free
// inside the replication lock, and any existing entry is a collision,
// even a byte-identical one: two identical messages must insert twice,
// so the idempotence shortcut in the store layer is reserved for
// replays of the SAME (epoch, seq)-tagged frame, never for a fresh
// delivery that happens to repeat another's contents.
func (nd *Node) DeliverNamed(t gfs.T, user uint64, name string, msg []byte) OpResult {
	sp := trace.Enter(t, "repl.deliver")
	defer trace.Exit(t, sp)
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	if _, present := nd.mb.ReadMessage(t, user, name); present {
		return OpNameTaken
	}
	if nd.cfg.Mut.AckBeforeBackup {
		// BUG (mb/repl-bug:ack-before-backup): publish locally and ack
		// without waiting for the backup — the replication layer's
		// ack-before-fsync. The backup catches up... unless the primary
		// dies first, and then a failover serves a mailbox missing an
		// acknowledged message.
		return applyResult(nd.mb.DeliverAs(t, user, name, msg))
	}
	res := nd.replicate(t, request{kind: kDeliver, user: user, name: name, body: msg})
	if res != OpOK {
		return res
	}
	if !nd.localDeliverMust(t, user, name, msg) {
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
	sp := trace.Enter(t, "repl.delete")
	defer trace.Exit(t, sp)
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	res := nd.replicate(t, request{kind: kDelete, user: user, name: name})
	if res != OpOK {
		return res
	}
	if !nd.localDeleteMust(t, user, name) {
		return OpIndeterminate
	}
	return OpOK
}

// applyResult maps a local mailboat apply status to an OpResult.
func applyResult(st mailboat.ApplyStatus) OpResult {
	switch st {
	case mailboat.Applied, mailboat.AlreadyApplied:
		return OpOK
	case mailboat.NameTaken:
		return OpNameTaken
	}
	return OpFailed
}

// replicate resolves one (epoch, seq)-tagged operation against the
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
func (nd *Node) replicate(t gfs.T, r request) OpResult {
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
					nd.cfg.Metrics.ReplicateObserved("failed")
					return OpFailed
				}
				// Our own epoch advanced mid-operation; retag and retry.
			case StNeedResync:
				resyncs++
				if resyncs > 3 || !nd.resyncLocked(t) {
					nd.cfg.Metrics.ReplicateObserved("failed")
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
		if !everUnknown && attempt >= nd.maxCallRetries() {
			// Every attempt definitely failed: neither store was
			// touched. This is the no-ack-barrier property.
			nd.cfg.Metrics.ReplicateObserved("failed")
			return OpFailed
		}
		if everUnknown && !modeled && attempt >= indetRetries {
			nd.cfg.Metrics.IndeterminateInc()
			nd.cfg.Metrics.ReplicateObserved("failed")
			return OpFailed
		}
		if !nd.retryPause(t, attempt) {
			if everUnknown {
				nd.cfg.Metrics.IndeterminateInc()
			}
			nd.cfg.Metrics.ReplicateObserved("failed")
			return OpFailed
		}
	}
}

// localDeliverMust applies the delivery locally after the backup
// confirmed it — past the point of no return, so transient local
// faults are retried until the store either applies or is dead.
func (nd *Node) localDeliverMust(t gfs.T, user uint64, name string, msg []byte) bool {
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
		if nd.selfDeadNow() {
			return false
		}
		if !nd.retryPause(t, attempt) {
			return false
		}
		if _, modeled := t.(*machine.T); !modeled && attempt >= 8 {
			return false
		}
	}
}

// localDeleteMust is localDeliverMust for deletes.
func (nd *Node) localDeleteMust(t gfs.T, user uint64, name string) bool {
	for attempt := 1; ; attempt++ {
		switch nd.mb.DeleteAs(t, user, name) {
		case mailboat.Applied, mailboat.AlreadyApplied:
			return true
		}
		if nd.selfDeadNow() {
			return false
		}
		if !nd.retryPause(t, attempt) {
			return false
		}
		if _, modeled := t.(*machine.T); !modeled && attempt >= 8 {
			return false
		}
	}
}

// Resync runs a catch-up: bump and persist OUR epoch first (the fence
// — in-flight frames from before this moment now carry a stale epoch),
// then stream the full authoritative state to the backup and commit.
// Returns false when the catch-up could not complete; the backup is
// then stale and the pair degraded until the next attempt.
func (nd *Node) Resync(t gfs.T) bool {
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	return nd.resyncLocked(t)
}

func (nd *Node) resyncLocked(t gfs.T) bool {
	sp := trace.Enter(t, "repl.resync")
	defer trace.Exit(t, sp)
	newEpoch := nd.epoch + 1
	if nd.cfg.Mut.ResyncSkipsEpoch {
		// BUG (mb/repl-bug:resync-skips-epoch): catch up without
		// bumping the epoch. The snapshot installs fine — and every
		// pre-resync frame still in flight carries a VALID epoch, so a
		// reordered replicate frame landing after the catch-up walks
		// straight through the gate and resurrects deleted state.
		newEpoch = nd.epoch
	} else if !nd.persistEpochRetry(t, newEpoch) {
		nd.cfg.Metrics.ResyncObserved(false)
		return false
	}
	nd.setEpoch(newEpoch)
	nd.setSeq(0)
	if !nd.rcallOK(t, request{kind: kResyncBegin, epoch: newEpoch}) {
		nd.cfg.Metrics.ResyncObserved(false)
		return false
	}
	for u := uint64(0); u < nd.mb.Users(); u++ {
		for _, m := range nd.mb.ReadBox(t, u) {
			put := request{kind: kResyncPut, epoch: newEpoch, user: u, name: m.ID, body: []byte(m.Contents)}
			if !nd.rcallOK(t, put) {
				nd.cfg.Metrics.ResyncObserved(false)
				return false
			}
		}
	}
	if !nd.rcallOK(t, request{kind: kResyncCommit, epoch: newEpoch}) {
		nd.cfg.Metrics.ResyncObserved(false)
		return false
	}
	nd.cfg.Metrics.ResyncObserved(true)
	nd.markResynced(t)
	trace.Event(t, "repl: resync complete at epoch %d", newEpoch)
	return true
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

// Promote makes this node the primary of a new epoch: persist the
// bumped epoch (fencing the old primary's in-flight frames), reset the
// sequence space, assume the role. Used at failover; the caller must
// have established that this node is safe to promote (in sync: same
// epoch as the failed primary and not mid-resync).
func (nd *Node) Promote(t gfs.T) bool {
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	newEpoch := nd.epoch + 1
	if !nd.persistEpochRetry(t, newEpoch) {
		return false
	}
	nd.setEpoch(newEpoch)
	nd.setSeq(0)
	nd.setLastApplied(0)
	nd.SetPrimary(true)
	nd.cfg.Metrics.FailoverInc()
	trace.Event(t, "repl: promoted to primary at epoch %d", newEpoch)
	return true
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
