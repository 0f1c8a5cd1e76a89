package repl

import (
	"repro/internal/gfs"
	"repro/internal/mailboat"
	"repro/internal/trace"
)

// HandleRequest is the backup role: decode one replication frame,
// gate it by epoch and sequence number, apply it through the mailboat
// library, respond. It is netmodel.Handler-shaped; the TCP server
// calls it with frames read off the socket. The replication lock
// serializes handlers against each other and against any primary-side
// protocol running on this node.
//
// The apply gate, in order:
//
//	epoch < ours            → StStaleEpoch   (fenced; never applied)
//	epoch > ours            → StNeedResync   (we are behind a fence)
//	mid-resync              → StNeedResync   (box is being rebuilt)
//	seq ≤ lastApplied       → StOK           (duplicate; idempotent)
//	seq = lastApplied+1     → apply
//	seq > lastApplied+1     → StNeedResync   (gap; we missed applies)
//
// lastApplied is deliberately volatile: a reboot zeroes it, the next
// frame shows a gap, and the primary runs a catch-up resync — the
// rejoining-backup path needs no extra detection machinery.
func (nd *Node) HandleRequest(t gfs.T, raw []byte) []byte {
	r, ok := decodeReq(raw)
	if !ok {
		return encodeResp(StBadRequest, nd.Epoch())
	}
	sp := trace.Enter(t, "repl.handle")
	defer trace.Exit(t, sp)
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	switch r.kind {
	case kPing:
		// Seq-aware liveness: the gate mirrors handleApply but mutates
		// nothing, so a pinger whose sequence space is ahead of our apply
		// cursor learns we are stale (StNeedResync) without sending an
		// operation — a rejoined backup reboots its cursor to zero, and
		// an idle primary would otherwise see a healthy pair over a stale
		// store until the next replicated operation tripped the gate.
		if r.epoch < nd.epoch {
			return encodeResp(StStaleEpoch, nd.epoch)
		}
		if r.epoch > nd.epoch || nd.resyncing || r.seq > nd.lastApplied {
			return encodeResp(StNeedResync, nd.epoch)
		}
		return encodeResp(StOK, nd.epoch)
	case kDeliver, kDelete:
		return nd.handleApply(t, r)
	case kResyncBegin:
		return nd.handleResyncBegin(t, r)
	case kResyncPut:
		return nd.handleResyncPut(t, r)
	case kResyncCommit:
		return nd.handleResyncCommit(t, r)
	}
	return encodeResp(StBadRequest, nd.epoch)
}

// handleApply gates and applies one replicated Deliver/Delete.
func (nd *Node) handleApply(t gfs.T, r request) []byte {
	if r.epoch < nd.epoch {
		trace.Event(t, "repl: reject stale epoch %d < %d", r.epoch, nd.epoch)
		nd.cfg.Metrics.StaleRejected.Inc()
		return encodeResp(StStaleEpoch, nd.epoch)
	}
	if r.epoch > nd.epoch || nd.resyncing {
		return encodeResp(StNeedResync, nd.epoch)
	}
	if r.seq <= nd.lastApplied {
		return encodeResp(StOK, nd.epoch) // duplicate of an applied frame
	}
	if r.seq != nd.lastApplied+1 {
		trace.Event(t, "repl: sequence gap %d after %d", r.seq, nd.lastApplied)
		return encodeResp(StNeedResync, nd.epoch)
	}
	var st mailboat.ApplyStatus
	if r.kind == kDeliver {
		st = nd.mb.DeliverAs(t, r.user, r.name, r.body)
	} else {
		st = nd.mb.DeleteAs(t, r.user, r.name)
	}
	switch st {
	case mailboat.Applied, mailboat.AlreadyApplied:
		nd.lastApplied = r.seq
		return encodeResp(StOK, nd.epoch)
	case mailboat.NameTaken:
		return encodeResp(StNameTaken, nd.epoch) // seq not consumed
	}
	return encodeResp(StStoreFailed, nd.epoch)
}

// handleResyncBegin opens the catch-up window for the given epoch.
// Deliberately NON-destructive: the snapshot installs by upsert (Put)
// and only Commit removes what the primary does not hold, so a
// re-delivered stale Begin frame cannot destroy a live backup's data —
// it merely opens a window that the next real catch-up supersedes. An
// epoch older than ours is fenced; equal is accepted (the gate must
// not silently repair a primary that failed to bump its epoch — that
// is the resync-skips-epoch mutation's bug to expose, not ours to
// mask).
func (nd *Node) handleResyncBegin(t gfs.T, r request) []byte {
	if r.epoch < nd.epoch {
		nd.cfg.Metrics.StaleRejected.Inc()
		return encodeResp(StStaleEpoch, nd.epoch)
	}
	if nd.resyncing && r.epoch == nd.resyncEpoch {
		// Duplicate of this attempt's own Begin (the sender retries on
		// an unknown outcome, and the net may re-deliver a reordered
		// copy): idempotent. Resetting the window here would discard the
		// record of every Put already streamed, and Commit would then
		// delete them as leftovers.
		trace.Event(t, "repl: duplicate resync begin at epoch %d", r.epoch)
		return encodeResp(StOK, nd.epoch)
	}
	if nd.resyncing && r.epoch < nd.resyncEpoch {
		// A stale Begin from an older, superseded attempt must not
		// hijack the window of the newer one.
		nd.cfg.Metrics.StaleRejected.Inc()
		return encodeResp(StStaleEpoch, nd.epoch)
	}
	nd.setResyncing(true, r.epoch)
	nd.lastApplied = 0
	nd.window = make(map[uint64]map[string]bool)
	trace.Event(t, "repl: resync begin at epoch %d", r.epoch)
	return encodeResp(StOK, nd.epoch)
}

// handleResyncPut upserts one authoritative message during catch-up
// and records its name in the window, so Commit can tell authoritative
// entries from leftovers. A name held with different contents is a
// stale leftover under a reused name: replace it. Out-of-window frames
// (no Begin seen, or a stale epoch) do not touch the store.
func (nd *Node) handleResyncPut(t gfs.T, r request) []byte {
	if !nd.resyncing || r.epoch != nd.resyncEpoch {
		if r.epoch < nd.epoch {
			nd.cfg.Metrics.StaleRejected.Inc()
			return encodeResp(StStaleEpoch, nd.epoch)
		}
		return encodeResp(StNeedResync, nd.epoch)
	}
	st := nd.mb.DeliverAs(t, r.user, r.name, r.body)
	if st == mailboat.NameTaken {
		if nd.mb.DeleteAs(t, r.user, r.name) == mailboat.ApplyFailed {
			return encodeResp(StStoreFailed, nd.epoch)
		}
		st = nd.mb.DeliverAs(t, r.user, r.name, r.body)
	}
	switch st {
	case mailboat.Applied, mailboat.AlreadyApplied:
		if nd.window[r.user] == nil {
			nd.window[r.user] = make(map[string]bool)
		}
		nd.window[r.user][r.name] = true
		return encodeResp(StOK, nd.epoch)
	}
	return encodeResp(StStoreFailed, nd.epoch)
}

// handleResyncCommit removes every message the primary did not send
// (the destructive half, safely inside the window), persists the
// catch-up epoch — the fence against every frame from before the
// resync — and goes live. A duplicate of an already-done commit
// answers OK without touching anything.
func (nd *Node) handleResyncCommit(t gfs.T, r request) []byte {
	if !nd.resyncing || r.epoch != nd.resyncEpoch {
		if !nd.resyncing && r.epoch == nd.epoch {
			return encodeResp(StOK, nd.epoch) // duplicate of a done commit
		}
		if r.epoch < nd.epoch {
			nd.cfg.Metrics.StaleRejected.Inc()
			return encodeResp(StStaleEpoch, nd.epoch)
		}
		return encodeResp(StNeedResync, nd.epoch)
	}
	for u := uint64(0); u < nd.mb.Users(); u++ {
		for _, m := range nd.mb.ReadBox(t, u) {
			if nd.window[u][m.ID] {
				continue
			}
			if nd.mb.DeleteAs(t, u, m.ID) == mailboat.ApplyFailed {
				return encodeResp(StStoreFailed, nd.epoch)
			}
		}
	}
	if !persistEpoch(t, nd.sys, r.epoch) {
		// Still in the window; the primary retries the commit.
		return encodeResp(StStoreFailed, nd.epoch)
	}
	nd.setEpoch(r.epoch)
	nd.setResyncing(false, 0)
	nd.lastApplied = 0
	nd.window = nil
	nd.markResynced(t)
	trace.Event(t, "repl: resync committed at epoch %d", r.epoch)
	return encodeResp(StOK, nd.epoch)
}
