package mailboat

import "repro/internal/gfs"

// This file contains the deliberately buggy variants of the mail
// server, including the two §9.5 bugs the authors describe; Scenario
// reaches each only through its Variant row (scenarios.go). They carry
// no ghost annotations; the model checker finds counterexamples (or,
// for the resource leak, demonstrably does not — matching the paper's
// observation that Perennial's proofs do not cover resource leaks).
//
// A delivery bug is the production stages of mailboat.go composed with
// one difference — a stage skipped, a token forged, a chunk size — so
// it keeps every retry exit, no-space exit and clean-up the real
// Deliver has, and is convicted for its bug alone. This is the only
// file allowed to forge a stage token, of delivery or of recovery.

// deliverDirect skips the spool-and-link protocol and writes the
// message directly into the mailbox directory. A concurrent (or
// post-crash) Pickup can observe a partially written message — the
// atomicity failure the spool exists to prevent. It is the one delivery
// that uses none of the stages, which is its bug.
func (mb *Mailboat) deliverDirect(t gfs.T, user uint64, msg []byte) bool {
	var fd gfs.FD
	for created := false; !created; {
		fd, created = mb.sys.Create(t, UserDir(user), MsgName(t.RandUint64(mb.cfg.RandBound)))
	}
	for off := 0; off < len(msg); off += gfs.MaxAppend {
		mb.sys.Append(t, fd, msg[off:min(off+gfs.MaxAppend, len(msg))])
	}
	mb.sys.Close(t, fd)
	return true
}

// pickupNoAdvance is the §9.5 infinite-loop bug: the chunked read loop
// never advances its offset, so any message of at least one full chunk
// (512 bytes) loops forever. The machine's step budget reports it as a
// possible infinite loop — the paper's authors likewise "caught this bug
// while doing the proof" even though termination is not proved.
func (mb *Mailboat) pickupNoAdvance(t gfs.T, user uint64) []Message {
	mb.locks[user].Acquire(t)
	names := mb.sys.List(t, UserDir(user))
	msgs := make([]Message, 0, len(names))
	for _, name := range names {
		fd, ok := mb.sys.Open(t, UserDir(user), name)
		if !ok {
			continue
		}
		var contents []byte
		for {
			chunk := mb.sys.ReadAt(t, fd, 0, gfs.ReadChunk) // BUG: offset never advances
			contents = append(contents, chunk...)
			if uint64(len(chunk)) < gfs.ReadChunk {
				break
			}
		}
		mb.sys.Close(t, fd)
		msgs = append(msgs, Message{ID: name, Contents: string(contents)})
	}
	return msgs
}

// pickupLeaky is the §9.5 resource-leak bug: it never closes the
// message file descriptors. This violates no refinement property — the
// history check accepts it, exactly as the paper reports that
// Perennial's proofs do not cover resource leaks — but gfs.Model.OpenFDs
// exposes it, and the between-era resource audit convicts it.
func (mb *Mailboat) pickupLeaky(t gfs.T, user uint64) []Message {
	mb.locks[user].Acquire(t)
	names := mb.sys.List(t, UserDir(user))
	msgs := make([]Message, 0, len(names))
	var chunks [][]byte
	for _, name := range names {
		fd, ok := mb.sys.Open(t, UserDir(user), name)
		if !ok {
			continue
		}
		var contents string
		contents, chunks = readAll(t, mb.sys, fd, chunks)
		// BUG: fd is never closed.
		msgs = append(msgs, Message{ID: name, Contents: contents})
	}
	return msgs
}

// A recovery bug is Recover's three stages (repair → sweep → reinit)
// composed with one difference each, so it keeps the resilver, the boot
// scrub, the BootScrub baseline and the reclaim accounting wherever its
// bug is not their absence.

// recoverWipesMailboxes is an overzealous recovery that cleans not just
// the spool but the user mailboxes too, destroying delivered (durable)
// mail — a durability violation the checker catches.
func recoverWipesMailboxes(t gfs.T, sys gfs.System, cfg Config) *Mailboat {
	sw := sweep(t, sys, cfg.Metrics, repair(t, sys))
	// BUG: the sweep goes on into the mailboxes.
	for u := uint64(0); u < cfg.Users; u++ {
		for _, name := range sys.List(t, UserDir(u)) {
			sys.Delete(t, UserDir(u), name)
		}
	}
	return reinit(t, nil, sys, cfg, nil, sw)
}

// recoverDropsTorn is a recovery that tidies up after a barrier-free
// crash: a message whose body came back empty lost its data when its
// link survived, so it deletes the message. But a crash keeps a prefix
// of the mailbox's directory operations, so a torn message may sit
// below a later survivor, and deleting it punches the hole the buffered
// contract (PrefixSpec) promises never to leave.
func recoverDropsTorn(t gfs.T, sys gfs.System, cfg Config) *Mailboat {
	sw := sweep(t, sys, cfg.Metrics, repair(t, sys))
	for u := uint64(0); u < cfg.Users; u++ {
		for _, name := range sys.List(t, UserDir(u)) {
			if data, ok := readFile(t, sys, UserDir(u), name); ok && data == "" {
				sys.Delete(t, UserDir(u), name) // BUG: a torn survivor becomes a hole
			}
		}
	}
	return reinit(t, nil, sys, cfg, nil, sw)
}

// recoverSkipResilver is a recovery that forgets the repair stage: it
// sweeps the spool and reinitializes like Recover, but on a store nobody
// resilvered (or scrubbed). On a mirror whose replaced replica has not
// been repaired, the replica serves stale (empty) reads; because the
// mirror fails reads over to replica 0 by position, skipping resilver
// makes delivered mail invisible after the next failover — an
// availability/durability violation the checker catches.
func recoverSkipResilver(t gfs.T, sys gfs.System, cfg Config) *Mailboat {
	// BUG: the repaired token is forged, not earned from repair.
	return reinit(t, nil, sys, cfg, nil, sweep(t, sys, cfg.Metrics, repaired{}))
}

// spoolAndPublish is deliverAttempt as far as the link, ghost-free —
// the part every delivery bug below shares with production — spooling
// in appends of at most chunk bytes.
func (mb *Mailboat) spoolAndPublish(t gfs.T, user uint64, msg []byte, chunk int) (published, bool) {
	spool, ok := mb.spoolWrite(t, msg, chunk)
	if !ok {
		return published{}, false
	}
	return mb.publishLink(t, nil, user, spool, msg)
}

// deliverForgetSpoolDelete links the message but forgets to remove the
// spool entry. This is a space leak, not a correctness bug: the spec
// does not mandate cleanup (§8.2's Recovery note), and Recover deletes
// the leftovers after the next crash. The checker accepts it.
func (mb *Mailboat) deliverForgetSpoolDelete(t gfs.T, user uint64, msg []byte) bool {
	// BUG (benign for refinement): stops at the link — no ack, so the
	// spool entry is never deleted.
	_, ok := mb.spoolAndPublish(t, user, msg, gfs.MaxAppend)
	return ok
}

// deliverAckOnNoSpace is the ack-after-ENOSPC bug: it runs the real
// spool-write-link protocol, but when an attempt fails on a full disk
// it acknowledges anyway, reasoning that the sender will surely retry
// "later" and the mailbox will surely have room "then". Nothing was
// published — the spool write never even landed — yet the client hears
// yes: acked-but-absent, the exact loss the clean-abort contract (fail
// the delivery, surface a temp-failure code) exists to prevent. The
// post pickup finds nothing there: a refinement failure.
func (mb *Mailboat) deliverAckOnNoSpace(t gfs.T, user uint64, msg []byte) bool {
	for attempt := 0; attempt < 3; attempt++ {
		if _, ok := mb.deliverAttempt(t, nil, user, msg); ok {
			return true
		}
		if mb.storeNoSpace() {
			// BUG: the store said no — disk full, nothing durable — but
			// the ack goes out anyway.
			return true
		}
	}
	return false
}

// deliverGreedySpoolGC is the gc-eats-live-spool bug: when a delivery
// hits a full disk it "helpfully" sweeps the entire spool directory to
// free space before retrying, reasoning that spool files are garbage —
// recovery deletes them, after all. The flaw is that recovery runs
// single-threaded, where every spool file really is an orphan; during
// operation a spool file may belong to a concurrent delivery that has
// written it but not yet linked it. Eating one makes that delivery's
// link target vanish out from under it — a protocol violation the
// model's link-source assertion catches red-handed.
func (mb *Mailboat) deliverGreedySpoolGC(t gfs.T, user uint64, msg []byte) bool {
	for attempt := 0; attempt < 3; attempt++ {
		if _, ok := mb.deliverAttempt(t, nil, user, msg); ok {
			return true
		}
		if mb.storeNoSpace() {
			// BUG: only recovery may sweep the spool; these files may be
			// live (spooled but not yet linked) under concurrent delivery.
			for _, name := range mb.sys.List(t, SpoolDir) {
				mb.sys.Delete(t, SpoolDir, name)
			}
		}
	}
	return false
}

// deliverTinyAppends is the delivery half of the torn-append bug pair.
// It follows the real spool-sync-link protocol — the spool file is
// fsynced before the link, so every *published* message is durable and
// complete — but writes the spool one byte per append instead of in
// 4 KiB chunks. That is not a bug by itself; it only becomes one when
// paired with recoverReplaySpool, which trusts whatever prefix of those
// appends a crash happened to preserve.
func (mb *Mailboat) deliverTinyAppends(t gfs.T, user uint64, msg []byte) bool {
	pub, ok := mb.spoolAndPublish(t, user, msg, 1) // one byte per append
	if !ok {
		return false
	}
	d, ok := mb.barrier(t, pub)
	if ok {
		mb.ack(t, d)
	}
	return ok
}

// deliverAckBeforeSync is the missing-directory-barrier delivery bug:
// it follows the full spool-sync-link protocol — the message bytes are
// fsynced before the link, so no surviving message is ever torn — but
// acknowledges as soon as the link lands, without SyncDir on the
// mailbox directory. On strict or merely buffered stores that barrier
// is a no-op and the bug is invisible; on a writeback store the link
// is still sitting in the directory cache when the true return reaches
// the client, so a crash can take back an acknowledged delivery — a
// durability violation only the "writeback" crash enumeration exposes.
func (mb *Mailboat) deliverAckBeforeSync(t gfs.T, user uint64, msg []byte) bool {
	pub, ok := mb.spoolAndPublish(t, user, msg, gfs.MaxAppend)
	if ok {
		// BUG: the durable token is forged, not earned from barrier —
		// the link may be lost at a crash after the client was told yes.
		mb.ack(t, durable{pub})
	}
	return ok
}

// deleteNoBarrier is the recovery-trusts-cache bug's operational half:
// it acknowledges a delete straight from the directory cache, with no
// barrier after the unlink. A crash may then resurrect the entry —
// un-synced deletes are lost like any other un-synced directory
// operation — and recovery, which (correctly) trusts whatever
// directory entries survived the crash, re-serves the message the
// user was told was gone. The spec's Delete removed it, so the
// post-crash pickup has no linearization.
func (mb *Mailboat) deleteNoBarrier(t gfs.T, user uint64, id string) bool {
	mb.checkUser(t, user)
	return mb.unlink(t, user, id, false) // BUG: no barrier, whatever Config.SyncDirs says
}

// recoverReplaySpool is a recovery that tries to be helpful: instead of
// sweeping leftover spool files it *replays* them into user 0's
// mailbox, reasoning that a spool file left behind by a crash is a
// delivery the sender never got acknowledged for, so salvaging it can
// only help. It even dedups against already-published mailbox contents
// so a crash between link and spool-delete does not double-deliver.
//
// The flaw is torn appends: a crash mid-delivery may preserve any
// prefix of the spool file's unsynced tail. A *partial* prefix is not a
// message anyone sent, yet this recovery publishes it — a refinement
// violation the checker only finds because the buffered model
// enumerates torn crash states (§ DESIGN.md 4e). Losing the whole tail
// leaves an empty spool file (swept harmlessly), and preserving all of
// it replays exactly what a completed delivery would have published, so
// the bug is invisible without torn-append enumeration.
func recoverReplaySpool(t gfs.T, sys gfs.System, cfg Config) *Mailboat {
	rep := repair(t, sys)
	inMailbox := map[string]bool{}
	for u := uint64(0); u < cfg.Users; u++ {
		for _, name := range sys.List(t, UserDir(u)) {
			if data, ok := readFile(t, sys, UserDir(u), name); ok {
				inMailbox[data] = true
			}
		}
	}
	for _, name := range sys.List(t, SpoolDir) {
		data, ok := readFile(t, sys, SpoolDir, name)
		if !ok {
			continue
		}
		if len(data) == 0 || inMailbox[data] {
			sys.Delete(t, SpoolDir, name)
			continue
		}
		// BUG: data may be a torn prefix of a message, not a message.
		for i := 0; i < NameAttempts; i++ {
			id := t.RandUint64(cfg.RandBound)
			if sys.Link(t, SpoolDir, name, UserDir(0), MsgName(id)) {
				inMailbox[data] = true
				sys.Delete(t, SpoolDir, name)
				break
			}
		}
	}
	// The swept token is forged: the spool was replayed, not swept.
	return reinit(t, nil, sys, cfg, nil, swept{rep})
}
