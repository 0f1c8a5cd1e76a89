package mailboat

import "repro/internal/gfs"

// This file is the replication surface of the library: entry points
// that store and remove messages under CALLER-CHOSEN mailbox names.
// Deliver picks a fresh random name at the linearization point, which
// is right for a single node but useless for a replica pair — both
// nodes must hold the same message under the same name for the stores
// to be byte-identical and for replayed/duplicated replication frames
// to be recognizable as such. repl's primary picks the name once, and
// both the primary's local apply and the backup's replicated apply go
// through DeliverAs, which is idempotent on (name, contents).
//
// These entry points are ghost-free by design: the replicated checker
// scenarios check black-box refinement through the Pair, so no proof
// annotations run here (they would need a ghost context per node and a
// distributed crash invariant — Grove's subject matter, not §8's).

// ApplyStatus reports the outcome of a named apply (DeliverAs or
// DeleteAs).
type ApplyStatus int

const (
	// Applied: the operation took effect now.
	Applied ApplyStatus = iota
	// AlreadyApplied: the store was already in the requested state —
	// for DeliverAs the name exists with identical contents, for
	// DeleteAs the name is already absent. The idempotent-duplicate
	// outcome replication retries rely on.
	AlreadyApplied
	// NameTaken: the name exists with DIFFERENT contents; the caller
	// must pick another name. Never returned by DeleteAs.
	NameTaken
	// ApplyFailed: the store transiently refused; nothing changed (for
	// DeliverAs the mailbox is untouched — spool debris is invisible at
	// the spec level and swept by Recover).
	ApplyFailed
)

// String names the status.
func (s ApplyStatus) String() string {
	switch s {
	case Applied:
		return "applied"
	case AlreadyApplied:
		return "already-applied"
	case NameTaken:
		return "name-taken"
	case ApplyFailed:
		return "apply-failed"
	}
	return "ApplyStatus(?)"
}

// Users returns the configured mailbox count — the replication layer
// walks every box during a catch-up resync.
func (mb *Mailboat) Users() uint64 { return mb.cfg.Users }

// ReadMessage reads user's message name in full; ok is false when the
// name is absent (or unreadable). The replication layer pre-checks
// candidate names with it before committing a fresh delivery to one.
func (mb *Mailboat) ReadMessage(t gfs.T, user uint64, name string) (string, bool) {
	mb.checkUser(t, user)
	return readFile(t, mb.sys, UserDir(user), name)
}

// classify names the idempotent outcome when user's mailbox already
// holds name: a duplicate if the contents match, a conflict if not.
func (mb *Mailboat) classify(t gfs.T, user uint64, name string, msg []byte) (st ApplyStatus, present bool) {
	existing, present := readFile(t, mb.sys, UserDir(user), name)
	if present && existing != string(msg) {
		return NameTaken, true
	}
	return AlreadyApplied, present
}

// publishAs is the named path's publish stage: one link claiming
// exactly name, where Deliver's publishLink draws fresh ones.
func (mb *Mailboat) publishAs(t gfs.T, user uint64, spool spooled, name string) (published, bool) {
	if !mb.sys.Link(t, SpoolDir, spool.name, UserDir(user), name) {
		mb.unspool(t, spool)
		return published{}, false
	}
	return published{spool, user, name}, true
}

// DeliverAs stores msg in user's mailbox under exactly the given name:
// Deliver's stages around publishAs (DESIGN.md "Delivery protocol").
// One attempt — the retry policy belongs to the replication layer,
// which knows whether a failure is worth a backoff, a peer
// consultation, or giving up — and no quota: Config.QuotaBytes is
// Deliver's reserve/commit pair, which mailboatd refuses to combine
// with a replica rather than half-apply here.
func (mb *Mailboat) DeliverAs(t gfs.T, user uint64, name string, msg []byte) ApplyStatus {
	mb.checkUser(t, user)
	if mb.storeDead() {
		// A dead store must not classify anything: its unreadable
		// entries would be mistaken for absent ones.
		return ApplyFailed
	}
	if st, present := mb.classify(t, user, name, msg); present {
		return st
	}
	spool, ok := mb.spoolWrite(t, msg, gfs.MaxAppend)
	if !ok {
		return ApplyFailed
	}
	pub, ok := mb.publishAs(t, user, spool, name)
	if !ok {
		// The link was refused: either the name appeared concurrently or
		// the store faulted. Re-check so a lost race is classified as the
		// duplicate/conflict it is rather than a transient failure.
		if st, present := mb.classify(t, user, name, msg); present {
			return st
		}
		return ApplyFailed
	}
	d, ok := mb.barrier(t, pub)
	if !ok {
		// Linked but the store died before the durability barrier: not
		// applied. The retry (after failover or revival) resolves
		// idempotently.
		return ApplyFailed
	}
	mb.ack(t, d)
	return Applied
}

// DeleteAs removes user's message name without taking the per-user
// lock — the replication layer serializes its own applies, and client
// deletes reach it only while the session's pickup lock is held at the
// Pair level. Absent names report AlreadyApplied (the idempotent
// outcome a retried or duplicated delete frame needs); NameTaken is
// never returned.
func (mb *Mailboat) DeleteAs(t gfs.T, user uint64, name string) ApplyStatus {
	mb.checkUser(t, user)
	if mb.storeDead() {
		// Unreadable must not be reported as absent/AlreadyApplied.
		return ApplyFailed
	}
	if _, ok := readFile(t, mb.sys, UserDir(user), name); !ok {
		return AlreadyApplied
	}
	if !mb.unlink(t, user, name, mb.cfg.SyncDirs) {
		return ApplyFailed
	}
	return Applied
}

// ReadBox reads user's entire mailbox without taking the per-user lock
// — the resync source read. The caller (repl's primary, holding its
// replication lock during a catch-up resync) is responsible for
// keeping concurrent mutation out, or for tolerating a torn snapshot
// (a delivery published during the walk simply replicates normally
// afterwards, under the post-resync epoch).
func (mb *Mailboat) ReadBox(t gfs.T, user uint64) []Message {
	mb.checkUser(t, user)
	names := mb.sys.List(t, UserDir(user))
	msgs := make([]Message, 0, len(names))
	for _, name := range names {
		if contents, ok := readFile(t, mb.sys, UserDir(user), name); ok {
			msgs = append(msgs, Message{ID: name, Contents: contents})
		}
	}
	return msgs
}
