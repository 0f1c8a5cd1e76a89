// Package mailboat is the paper's §8 mail server: a Maildir-style
// library supporting concurrent pickup/delete by users and lock-free
// concurrent delivery, with crash safety. Messages are spooled into a
// separate directory and atomically linked into the user's mailbox
// (the shadow-copy pattern applied to files); recovery deletes leftover
// spool files.
//
// The library is written against gfs.System, so the same code runs on
// the modeled file system under the model checker (the analog of
// Goose's Coq model) and on the real file system under the SMTP/POP3
// server and the Figure 11 benchmark (the analog of compiling Goose
// with the Go toolchain).
//
// Concurrency control matches §8.2:
//
//   - Pickup/Delete: a per-user lock, acquired by Pickup and released by
//     Unlock, prevents deletes from racing with mailbox reads.
//   - Pickup/Deliver: delivery never takes locks; it writes to the spool
//     and publishes with an atomic link, so readers only ever see
//     complete messages.
//   - Deliver/Deliver: concurrent deliveries pick random file names and
//     retry on collision.
package mailboat

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/trace"
)

// SpoolDir is the spool directory name.
const SpoolDir = "spool"

// Message is one stored message, as in Figure 10.
type Message struct {
	ID       string
	Contents string
}

// Config sizes the mail store.
type Config struct {
	// Users is the number of user mailboxes (user IDs 0..Users-1).
	Users uint64
	// RandBound is the name-allocation domain for spool and mailbox file
	// names. Production uses a large bound (collisions are rare); model
	// checking uses a small one so the specification stays enumerable.
	RandBound uint64
	// SyncOnDeliver makes Deliver fsync the spooled message before
	// linking it into the mailbox. On the strict (process-crash) model
	// this is unnecessary — the paper's setting — but on a buffered
	// file system (gfs.NewBufferedModel, deferred durability) it is
	// required for crash safety: without it, a crash after the link can
	// leave a truncated message in the mailbox.
	SyncOnDeliver bool
	// SyncDirs makes Deliver and Delete issue a directory durability
	// barrier (gfs.SyncDir on the user's mailbox directory) before
	// acking. On the strict and buffered models directory operations
	// are durable immediately and the barrier is a no-op; on a
	// writeback file system (gfs.NewWritebackModel, or a real disk
	// whose directory updates sit in the page cache) it is required for
	// crash safety: without it an acked delivery's link may be lost at
	// a crash, and an acked delete's unlink may be undone — the entry
	// resurrects and recovery, trusting the surviving directory,
	// serves a message the user already deleted. Pair with
	// SyncOnDeliver, which covers the message bytes; SyncDirs covers
	// the directory entry.
	SyncDirs bool
	// DeliverRetries bounds how many times Deliver restarts the whole
	// spool-write-link protocol after a transient store failure (a
	// failed append or sync, or name allocation running dry). 0 means
	// the default of 3 attempts. After the last attempt Deliver gives
	// up and reports a transient failure — never a silent drop.
	DeliverRetries int
	// DeliverBackoff is the base delay between Deliver's retry
	// attempts, doubled per attempt up to BackoffCap. It only applies on
	// real (native) threads; modeled threads never sleep — the model
	// checker owns time there. 0 disables backoff.
	DeliverBackoff time.Duration
	// QuotaBytes, when nonzero, bounds each user's mailbox to that many
	// message bytes. A delivery that would exceed the quota is refused
	// up front as a clean spec-level transient failure (the mailbox is
	// untouched and the sender hears a temp-failure code) — one tenant
	// cannot fill the disk out from under the rest. Usage is derived
	// from the store at Init/Recover and tracked per delivery/delete;
	// 0 disables quotas entirely (no tracking, no extra I/O).
	QuotaBytes uint64
	// Metrics records spec-level operation outcomes (deliver
	// attempts/retries/failures, pickup volume, recovery spool sweeps).
	// Leave it zero under the model checker: the zero value records
	// nothing and reads no clock, and a set from NewMetrics reads the
	// wall clock, which a checked execution has no business doing.
	Metrics Metrics
}

// NameAttempts bounds fresh-name allocation loops (spool create, link
// publish, and the replication layers' caller-chosen names) within one
// delivery attempt. Collisions resolve in a few iterations even at
// model-checking RandBounds, so hitting the cap means the store is
// persistently failing — a transient fault to surface, not an excuse to
// spin forever.
const NameAttempts = 128

// openAttempts bounds Pickup's per-message open retries. Opens can fail
// transiently (descriptor exhaustion — gfs.Faulty's fault.NoFiles — or a
// passing EMFILE on the real OS) and a listed name cannot vanish under
// the pickup lock, so a couple of retries turn a spurious skip into the
// read the listing promised; a persistent failure still skips rather
// than stalling the mailbox.
const openAttempts = 4

// UserDir returns user u's mailbox directory name.
func UserDir(u uint64) string { return userDirs.Name(u) }

// Dirs returns the fixed directory layout for cfg, for gfs setup.
func Dirs(cfg Config) []string {
	out := append(make([]string, 0, 1+cfg.Users), SpoolDir)
	for u := uint64(0); u < cfg.Users; u++ {
		out = append(out, UserDir(u))
	}
	return out
}

// MsgName returns the mailbox file name for allocation index i.
func MsgName(i uint64) string { return msgNames.Name(i) }

func tmpName(i uint64) string { return tmpNames.Name(i) }

// Mailboat is the per-era library state: the per-user locks plus the
// optional ghost context for the proof-annotated variant. The ghost
// fields implement the §8.3 leasing strategy: each mailbox directory
// has a set master (dir ↦ N, in the crash invariant) and a lower-bound
// lease lease(dir, ⊇N) protected by the mailbox lock, so the lock
// holder may delete observed messages while lock-free deliveries may
// only insert.
type Mailboat struct {
	sys   gfs.System
	cfg   Config
	locks []gfs.Lock

	g          *core.Ctx
	boxMasters []*core.SetMaster
	boxLeases  []*core.SetLease

	// boot is what Recover's repair stage reported (see BootScrub).
	boot repaired

	// quota is the per-user byte accounting behind Config.QuotaBytes;
	// nil when quotas are disabled.
	quota *quotaState
}

// Init initializes the library on a fresh store (Figure 10's Init): the
// per-user locks and, under the ghost context, the mailbox directory
// capabilities. It is reinit with no previous era — a fresh store has
// nothing to repair or sweep, so Init may mint that token itself. After
// a crash, run Recover instead.
func Init(t gfs.T, g *core.Ctx, sys gfs.System, cfg Config) *Mailboat {
	return reinit(t, g, sys, cfg, nil, swept{})
}

// Deliver stores msg in user's mailbox (Figure 10's Deliver). It
// spools the message under a fresh random name, writing at most 4 KiB
// per append, then atomically links it into the mailbox under another
// fresh random name and removes the spool entry. The successful link is
// the linearization point: the ghost spec step happens in the same
// atomic turn as the link, so a crash before it simply drops the
// delivery (the spool file is invisible at the spec level and cleaned
// by Recover).
//
// Transient store failures (a faulted create/append/sync/link under
// gfs.Faulty, or a real EIO/ENOSPC/failed fsync under the OS backend)
// abort the attempt, discard its spool file, and retry the whole
// protocol up to Config.DeliverRetries times with optional backoff.
// Deliver reports whether the message was committed; false means the
// mailbox is untouched (the spec's transient-failure outcome) and the
// caller should surface a temporary failure, never drop the message
// silently.
func (mb *Mailboat) Deliver(t gfs.T, j *core.JTok, user uint64, msg []byte) bool {
	mb.checkUser(t, user)
	sp := trace.Enter(t, "mailboat.deliver")
	defer trace.Exit(t, sp)
	m := &mb.cfg.Metrics
	start := m.DeliverSeconds.Start()
	attempts, ok := mb.deliver(t, j, user, msg)
	m.DeliverAttempts.Add(uint64(attempts))
	if attempts > 1 {
		m.DeliverRetries.Add(uint64(attempts - 1))
	}
	if ok {
		m.DeliverCommitted.Inc()
	} else {
		m.DeliverFailed.Inc()
	}
	m.DeliverSeconds.ObserveSince(start)
	return ok
}

// deliver is Deliver's quota check and retry loop; it reports the
// attempts it made and whether one committed.
func (mb *Mailboat) deliver(t gfs.T, j *core.JTok, user uint64, msg []byte) (attempts int, ok bool) {
	if !mb.quotaReserve(user, uint64(len(msg))) {
		// Over quota: a clean up-front refusal with the mailbox
		// untouched — the same spec-level transient-failure outcome as
		// retry exhaustion, so refinement is unaffected and the caller
		// surfaces a temp-failure code.
		trace.Event(t, "deliver refused: user %d over quota", user)
		if mb.g != nil && j != nil {
			mb.g.StepSim(modelT(t), j, false)
		}
		mb.cfg.Metrics.QuotaRejected.Inc()
		return 0, false
	}
	retries := mb.cfg.DeliverRetries
	if retries <= 0 {
		retries = 3
	}
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			if mb.storeNoSpace() {
				// The store is latched full: no retry can succeed until
				// space is freed, so stop burning attempts and report
				// the clean abort now.
				trace.Event(t, "deliver abandoned: store out of space")
				break
			}
			trace.Event(t, "deliver retry: attempt %d", attempt+1)
			mb.backoff(t, attempt)
		}
		attempts++
		if name, ok := mb.deliverAttempt(t, j, user, msg); ok {
			// The committed delivery's bytes are pinned to the name the
			// link claimed, so a later Delete credits the quota correctly.
			mb.quotaCommit(user, name, uint64(len(msg)))
			return attempts, true
		}
	}
	// Giving up on a transient failure is itself a spec-level outcome:
	// Deliver fails, the mailbox is unchanged.
	mb.quotaRelease(user, uint64(len(msg)))
	if mb.g != nil && j != nil {
		mb.g.StepSim(modelT(t), j, false)
	}
	return attempts, false
}

// BackoffCap caps every retry pause: Deliver's, and the replication
// client leg's (repl).
const BackoffCap = time.Second

// Backoff is the one retry-pacing rule: the pause before retry number
// attempt (1-based) is base doubled per attempt, capped at BackoffCap,
// and 0 when base is not positive. Doubling stops at the cap, so no
// attempt count overflows it.
func Backoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < BackoffCap; i++ {
		d <<= 1
	}
	return min(d, BackoffCap)
}

// backoff sleeps between delivery attempts (Backoff from
// Config.DeliverBackoff). Modeled threads never sleep: under the
// checker, time belongs to the scheduler.
func (mb *Mailboat) backoff(t gfs.T, attempt int) {
	if _, modeled := t.(*machine.T); !modeled {
		time.Sleep(Backoff(mb.cfg.DeliverBackoff, attempt))
	}
}

// Delivery is four stages that hand each other value tokens (DESIGN.md
// "Delivery protocol" has the table): a stage can only run on the token
// the stage before it minted, so the order crash safety hangs on is the
// order that builds. Each stage deletes the spool file on its own
// failure (best effort — a leftover is invisible at the spec level and
// reclaimed by Recover, the TmpInv of §8.3) and leaves the mailbox
// untouched. A seeded bug composes these same functions and forges the
// token it has not earned, in bugs.go and nowhere else
// (TestTokensForgedOnlyInBugs).

// spooled is a complete spool file: every byte appended, fsynced when
// Config.SyncOnDeliver says so, descriptor closed.
type spooled struct{ name string }

// published is a spooled message linked into user's mailbox under name:
// visible to Pickup (the linearization point is behind it), its
// directory entry not yet known to be durable.
type published struct {
	spool spooled
	user  uint64
	name  string
}

// durable is a published message whose directory entry is past the
// Config.SyncDirs barrier (the persist point). It is all ack accepts,
// so acking before the barrier does not build.
type durable struct{ pub published }

// deliverAttempt runs one round of the protocol and reports the mailbox
// name it published under. Each stage is its own function so each shows
// up as its own span on a traced request.
func (mb *Mailboat) deliverAttempt(t gfs.T, j *core.JTok, user uint64, msg []byte) (name string, ok bool) {
	spool, ok := mb.spoolWrite(t, msg, gfs.MaxAppend)
	if !ok {
		return "", false
	}
	pub, ok := mb.publishLink(t, j, user, spool, msg)
	if !ok {
		return "", false
	}
	d, ok := mb.barrier(t, pub)
	if !ok {
		return "", false
	}
	mb.ack(t, d)
	return pub.name, true
}

// unspool deletes a spool file: a failed stage's clean-up, and ack.
func (mb *Mailboat) unspool(t gfs.T, spool spooled) { mb.sys.Delete(t, SpoolDir, spool.name) }

// spoolWrite spools msg under a fresh name: create, appends of at most
// chunk bytes, optional fsync, close.
func (mb *Mailboat) spoolWrite(t gfs.T, msg []byte, chunk int) (spooled, bool) {
	sp := trace.Enter(t, "spool.write")
	defer trace.Exit(t, sp)
	var spool spooled
	var fd gfs.FD
	created := false
	for i := 0; i < NameAttempts && !created; i++ {
		spool = spooled{tmpName(t.RandUint64(mb.cfg.RandBound))}
		fd, created = mb.sys.Create(t, SpoolDir, spool.name)
		if !created && mb.storeNoSpace() {
			// A failed create on a full disk is not a name collision:
			// every retry fails the same way until space is freed, so
			// abort instead of walking the whole name space.
			trace.Event(t, "spool create abandoned: store out of space")
			break
		}
	}
	if !created {
		return spooled{}, false
	}
	ok := true
	for off := 0; ok && off < len(msg); off += chunk {
		ok = mb.sys.Append(t, fd, msg[off:min(off+chunk, len(msg))])
	}
	if ok && mb.cfg.SyncOnDeliver {
		// fsyncgate: after a failed fsync the kernel may already have
		// dropped the dirty pages, so re-syncing this descriptor could
		// report success for lost data. Abandon the file and rewrite
		// from scratch.
		ok = mb.sys.Sync(t, fd)
	}
	mb.sys.Close(t, fd)
	if !ok {
		mb.unspool(t, spool)
		return spooled{}, false
	}
	return spool, true
}

// publishLink links the spooled message into user's mailbox under a
// fresh name — the linearization point — and takes the ghost step in
// the same atomic turn.
func (mb *Mailboat) publishLink(t gfs.T, j *core.JTok, user uint64, spool spooled, msg []byte) (published, bool) {
	sp := trace.Enter(t, "publish.link")
	defer trace.Exit(t, sp)
	for i := 0; i < NameAttempts; i++ {
		mname := MsgName(t.RandUint64(mb.cfg.RandBound))
		if !mb.sys.Link(t, SpoolDir, spool.name, UserDir(user), mname) {
			if mb.storeNoSpace() {
				// The link failed for space, not a name collision; stop
				// here. Deleting the spool file below releases space, so
				// the clean abort itself helps the disk recover.
				trace.Event(t, "publish link abandoned: store out of space")
				break
			}
			continue
		}
		if mb.g != nil {
			// Ghost-atomic with the link: the directory-entry
			// insertion needs no lease (§8.3 — inserts preserve
			// every lower bound), and Deliver's spec step is
			// simulated now that the message is visible,
			// instantiating the spec's fresh-ID existential with
			// the name the link actually claimed.
			mb.boxMasters[user].Insert(modelT(t), mname, nil)
			if j != nil {
				mb.g.StepSimWhere(modelT(t), j, true, func(s spec.State) bool {
					got, ok := s.(State).Lookup(user, mname)
					return ok && got == string(msg)
				})
			}
		}
		return published{spool, user, mname}, true
	}
	mb.unspool(t, spool)
	return published{}, false
}

// barrier is the persist point: the link is visible but not yet
// durable, so the mailbox directory is barriered before anything may
// ack — a crash after the true return cannot take the message back. A
// store that fail-stopped under the barrier can never ack: the stage
// fails (the node is dead; no client hears from it).
func (mb *Mailboat) barrier(t gfs.T, pub published) (durable, bool) {
	if mb.cfg.SyncDirs && !mb.syncDirBarrier(t, UserDir(pub.user)) {
		mb.unspool(t, pub.spool)
		return durable{}, false
	}
	return durable{pub}, true
}

// ack retires the spool entry of a durable delivery; the caller may now
// answer yes.
func (mb *Mailboat) ack(t gfs.T, d durable) { mb.unspool(t, d.pub.spool) }

// syncDirBarrier makes dir's entries durable, retrying transient
// failures with backoff until the barrier commits. A failed SyncDir is
// never a barrier, but unlike a failed file Sync it may be retried
// (directory metadata goes through the journal; there are no fsyncgate
// dirty pages to lose), and after a publish that cannot be
// un-published, retrying until success is the only answer that keeps
// the ack ⟺ durable contract exact. Under the checker transient fault
// budgets bound consecutive failures, so the loop terminates; on a
// real disk a persistently failing directory fsync means the device is
// dying, and stalling the ack is what a mail server owes its clients.
//
// The one failure that IS permanent is a fail-stopped store (the
// replicated scenarios latch a whole node dead): no barrier will ever
// commit there, so the loop reports false and the caller must withhold
// its ack. A dead node cannot answer clients anyway — the replication
// layer's failover is what turns this refusal into availability.
func (mb *Mailboat) syncDirBarrier(t gfs.T, dir string) bool {
	sp := trace.Enter(t, "syncdir.barrier")
	defer trace.Exit(t, sp)
	for attempt := 1; !mb.sys.SyncDir(t, dir); attempt++ {
		if mb.storeDead() {
			trace.Event(t, "syncdir barrier abandoned: store fail-stopped")
			return false
		}
		trace.Event(t, "syncdir retry: attempt %d", attempt)
		mb.backoff(t, min(attempt, 8))
	}
	return true
}

// storeDead reports whether the store has latched permanently dead
// (gfs.Faulty after a fail-stop). Stacks without the latch never are.
// The latch is found through any wrappers above it (metrics, an
// envelope): asserting on mb.sys itself would answer false on every
// metrics-enabled daemon and leave the retry loops spinning.
func (mb *Mailboat) storeDead() bool {
	fs := gfs.AsFailStopper(mb.sys)
	return fs != nil && fs.FailStopped()
}

// storeNoSpace reports whether the store has latched disk-full
// (gfs.Faulty's fault.NoSpace). Unlike a fail-stop the latch is
// recoverable — freeing space (deleting files) clears it — but while it
// holds, every write fails the same way, so retry loops should abort
// rather than spin. Stacks without the latch never report full.
func (mb *Mailboat) storeNoSpace() bool {
	ns := gfs.AsNoSpacer(mb.sys)
	return ns != nil && ns.NoSpace()
}

// Pickup lists and reads user's mailbox (Figure 10's Pickup),
// implicitly acquiring the user's pickup/delete lock; the caller must
// eventually call Unlock. Deliveries may run concurrently; the listing
// is the linearization point, and every listed message is complete
// (delivery publishes atomically). Messages are read by readAll.
func (mb *Mailboat) Pickup(t gfs.T, j *core.JTok, user uint64) []Message {
	mb.checkUser(t, user)
	sp := trace.Enter(t, "mailboat.pickup")
	defer trace.Exit(t, sp)
	start := mb.cfg.Metrics.PickupSeconds.Start()
	lsp := trace.Enter(t, "mailbox.list")
	mb.locks[user].Acquire(t)

	var expected []Message
	names := mb.sys.List(t, UserDir(user))
	if mb.g != nil {
		// Ghost-atomic with the listing: raise the lower-bound lease to
		// the listed set (we hold the mailbox lock), check the listing
		// against the master — the meaning of dir ↦ N — and simulate
		// the spec's Pickup, which returns exactly the source-state
		// mailbox at this instant; the reads below must reproduce it
		// (checked by FinishOp).
		mb.boxLeases[user].Refresh(modelT(t), mb.boxMasters[user])
		if want := mb.boxMasters[user].Elems(modelT(t)); !slices.Equal(want, names) {
			modelT(t).Failf("capability mismatch: %s lists %v but master asserts %v", UserDir(user), names, want)
		}
		if j != nil {
			expected = specPickup(mb.g, user)
			mb.g.StepSim(modelT(t), j, expected)
		}
	}
	trace.Exit(t, lsp)

	rsp := trace.Enter(t, "mailbox.read")
	msgs := make([]Message, 0, len(names))
	var chunks [][]byte
	var read uint64
	for _, name := range names {
		var fd gfs.FD
		opened := false
		for a := 0; a < openAttempts; a++ {
			if a > 0 {
				trace.Event(t, "pickup open retry: %s attempt %d", name, a+1)
				mb.backoff(t, a)
			}
			if f, ok := mb.sys.Open(t, UserDir(user), name); ok {
				fd, opened = f, true
				break
			}
		}
		if !opened {
			// The lock excludes deletes and links never replace
			// existing names, so listed names cannot vanish; only a
			// persistently failing open skips the message.
			continue
		}
		var contents string
		contents, chunks = readAll(t, mb.sys, fd, chunks)
		mb.sys.Close(t, fd)
		msgs = append(msgs, Message{ID: name, Contents: contents})
		read += uint64(len(contents))
	}
	trace.Exit(t, rsp)
	m := &mb.cfg.Metrics
	m.Pickups.Inc()
	m.PickupMessages.Add(uint64(len(msgs)))
	m.PickupBytes.Add(read)
	m.PickupSeconds.ObserveSince(start)
	return msgs
}

// readAll reads fd to end of file in gfs.ReadChunk pieces — the one
// chunked read loop (its off-by-one variant is the §9.5 infinite-loop
// bug). It advances by however many bytes actually arrived: short reads
// (a POSIX possibility, and gfs.Faulty's injected fault) are retried
// from the new offset rather than mistaken for end-of-file, which only
// a zero-length read signals. The chunks are held as they arrive and
// joined once the length is known (asking Size for it would be one more
// step of the checked execution), so each byte is copied once, into a
// string allocated at its final size. chunks is scratch, handed back so
// a caller reading many files reuses it.
func readAll(t gfs.T, sys gfs.System, fd gfs.FD, chunks [][]byte) (string, [][]byte) {
	chunks = chunks[:0]
	off := uint64(0)
	for {
		chunk := sys.ReadAt(t, fd, off, gfs.ReadChunk)
		if len(chunk) == 0 {
			break
		}
		chunks = append(chunks, chunk)
		off += uint64(len(chunk))
	}
	var contents strings.Builder
	contents.Grow(int(off))
	for _, chunk := range chunks {
		contents.Write(chunk)
	}
	return contents.String(), chunks
}

// readFile reads dir/name in full; ok is false when the name cannot be
// opened (absent — or every store op failing, which the caller's next
// write will discover anyway).
func readFile(t gfs.T, sys gfs.System, dir, name string) (contents string, ok bool) {
	fd, ok := sys.Open(t, dir, name)
	if !ok {
		return "", false
	}
	var scratch [4][]byte // on the stack: most messages are a chunk or two
	contents, _ = readAll(t, sys, fd, scratch[:0])
	sys.Close(t, fd)
	return contents, true
}

// unlink removes user's message id and, when syncDirs is set, barriers
// the mailbox directory: the unlink may still be sitting in the
// directory cache, and an un-barriered ack would let a crash resurrect
// the entry after the user was told it is gone. On a fail-stopped store
// the barrier is unreachable forever: refuse the ack.
func (mb *Mailboat) unlink(t gfs.T, user uint64, id string, syncDirs bool) bool {
	return mb.sys.Delete(t, UserDir(user), id) && (!syncDirs || mb.syncDirBarrier(t, UserDir(user)))
}

// Delete removes a message picked up earlier (Figure 10's Delete). The
// caller must hold the user's lock (i.e. be between Pickup and Unlock)
// and must pass an ID returned by that Pickup — passing other IDs is
// outside the specification (§8.1, §9.2). A false return means the
// store transiently refused the unlink: the message is still in the
// mailbox, and the caller should report rather than swallow that.
func (mb *Mailboat) Delete(t gfs.T, j *core.JTok, user uint64, id string) bool {
	mb.checkUser(t, user)
	sp := trace.Enter(t, "mailboat.delete")
	defer trace.Exit(t, sp)
	ok := mb.unlink(t, user, id, mb.cfg.SyncDirs)
	if ok {
		mb.quotaCredit(user, id)
	}
	if mb.g != nil {
		if ok {
			// The removal requires the lower-bound lease to contain id:
			// the ghost form of §8.1's assumption that users only delete
			// IDs returned by Pickup.
			mb.boxMasters[user].Remove(modelT(t), mb.boxLeases[user], id, nil)
		}
		if j != nil {
			mb.g.StepSim(modelT(t), j, ok)
		}
	}
	if ok {
		mb.cfg.Metrics.Deletes.Inc()
	} else {
		mb.cfg.Metrics.DeleteFailed.Inc()
	}
	return ok
}

// Unlock releases the user's pickup/delete lock (Figure 10's Unlock).
func (mb *Mailboat) Unlock(t gfs.T, j *core.JTok, user uint64) {
	mb.checkUser(t, user)
	if mb.g != nil && j != nil {
		mb.g.StepSim(modelT(t), j, nil)
	}
	mb.locks[user].Release(t)
}

// Recovery is three stages that hand each other value tokens, like
// delivery (DESIGN.md "Recovery protocol" has the table): the spool is
// swept on a repaired store only, and the library is rebuilt on a swept
// one only. Each stage is idempotent, so a crash inside recovery is
// repaired by running it again. A seeded bug composes these same
// functions and forges the token it has not earned, in bugs.go and
// nowhere else (TestTokensForgedOnlyInBugs).

// repaired is a store whose redundancy and integrity recovery has
// restored as far as the stack can: a replaced mirror replica resilvered,
// every envelope read once and judged. It carries what that found.
type repaired struct {
	boot     gfs.ScrubReport
	scrubbed bool
}

// swept is a repaired store whose spool holds no orphan recovery could
// delete (TmpInv restored, their bytes returned to the disk).
type swept struct{ rep repaired }

// Recover restores the library after a crash (Figure 10's Recover):
// repair, sweep, reinit. old carries the pre-crash ghost handles; it may
// be nil when the ghost context is nil (production boot). What repair
// found is kept on the returned Mailboat (BootScrub), so a daemon can
// publish it as its integrity baseline without reading the store again.
func Recover(t gfs.T, g *core.Ctx, sys gfs.System, cfg Config, old *Mailboat) *Mailboat {
	sp := trace.Enter(t, "mailboat.recover")
	defer trace.Exit(t, sp)
	rep := repair(t, sys)
	sw := sweep(t, sys, cfg.Metrics, rep)
	return reinit(t, g, sys, cfg, old, sw)
}

// repair restores redundancy and integrity before anything reads data.
// With a mirror in the stack, resilvering copies the surviving replica
// onto its replacement while the system is still single-threaded, so
// every read after it (the spool sweep included) sees a fully repaired
// pair; skipped, the replacement serves stale reads. With a checksum
// envelope that same pass is the boot scrub — fsck's role for rot that
// accrued while the machine was down: a resilver that completes has read
// every file once per replica and judged the exact bytes it read, so its
// report IS the scrub of the repaired store and nothing is read twice.
// The standalone scrub runs only where no verified resilver completed: a
// single backend (which detects without healing), or a mirror left
// degraded, whose surviving replica is still verified.
func repair(t gfs.T, sys gfs.System) repaired {
	var boot gfs.ScrubReport
	scrubbed := false
	if r := gfs.AsResilverer(sys); r != nil {
		rsp := trace.Enter(t, "recover.resilver")
		boot, _, scrubbed = r.Resilver(t)
		trace.Exit(t, rsp)
	}
	if sc := gfs.AsScrubber(sys); sc != nil && !scrubbed {
		ssp := trace.Enter(t, "recover.scrub")
		boot, scrubbed = sc.Scrub(t, true), true
		trace.Exit(t, ssp)
	}
	return repaired{boot, scrubbed}
}

// sweep deletes every leftover spool file: each belongs to a delivery
// that never linked, so it is invisible at the spec level (the TmpInv of
// §8.3), and deleting it returns its bytes to the store — the sweep is
// the disk's garbage collector (on gfs.Faulty a successful delete clears
// a latched disk-full condition). An orphan whose delete fails waits for
// the next boot. Orphan sizes are only measured when metrics are on, so
// the checker path issues exactly the paper's I/O.
func sweep(t gfs.T, sys gfs.System, m Metrics, rep repaired) swept {
	sp := trace.Enter(t, "recover.sweep")
	deleted, failed := 0, 0
	var reclaimed uint64
	for _, name := range sys.List(t, SpoolDir) {
		if m.RecoverReclaimedBytes != nil {
			if fd, ok := sys.Open(t, SpoolDir, name); ok {
				reclaimed += sys.Size(t, fd)
				sys.Close(t, fd)
			}
		}
		if sys.Delete(t, SpoolDir, name) {
			deleted++
		} else {
			failed++
		}
	}
	trace.Exit(t, sp)
	m.Recoveries.Inc()
	m.RecoverSpoolSwept.Add(uint64(deleted))
	m.RecoverSweepFailed.Add(uint64(failed))
	m.RecoverReclaimedBytes.Add(reclaimed)
	return swept{rep}
}

// reinit builds an era's library state on a swept store: it discharges
// the spec-level crash step if one is owed, allocates the per-user locks
// and, under the ghost context, the mailbox capabilities (masters
// deposited in the crash invariant — MsgsInv) — resynthesized from old's
// masters after a crash, derived from the directory listings on a fresh
// store (old == nil, Init) — then re-derives quota usage.
func reinit(t gfs.T, g *core.Ctx, sys gfs.System, cfg Config, old *Mailboat, sw swept) *Mailboat {
	if g != nil && g.CrashPending() {
		g.CrashSim(modelT(t))
	}
	mb := &Mailboat{sys: sys, cfg: cfg, g: g, boot: sw.rep}
	mb.locks = make([]gfs.Lock, cfg.Users)
	for u := uint64(0); u < cfg.Users; u++ {
		mb.locks[u] = sys.NewLock(t, lockNames.Name(u))
	}
	if g != nil {
		mb.boxMasters = make([]*core.SetMaster, cfg.Users)
		mb.boxLeases = make([]*core.SetLease, cfg.Users)
		for u := uint64(0); u < cfg.Users; u++ {
			if old != nil {
				mb.boxMasters[u], mb.boxLeases[u] = old.boxMasters[u].Resynthesize(modelT(t))
			} else {
				mb.boxMasters[u], mb.boxLeases[u] = g.NewDurableSet(modelT(t), UserDir(u), sys.List(t, UserDir(u)))
			}
			g.DepositSetMaster(modelT(t), mb.boxMasters[u])
		}
	}
	mb.initQuota(t)
	return mb
}

// BootScrub returns the integrity report of the recovery that built mb
// — the store as Recover left it, spool sweep aside. ok is false when
// the stack has nothing to scrub with (no envelope, no mirror) or mb
// came from Init.
func (mb *Mailboat) BootScrub() (rep gfs.ScrubReport, ok bool) {
	return mb.boot.boot, mb.boot.scrubbed
}

func (mb *Mailboat) checkUser(t gfs.T, user uint64) {
	if user >= mb.cfg.Users {
		panic(fmt.Sprintf("mailboat: user %d out of range (%d users)", user, mb.cfg.Users))
	}
}

// specPickup computes, from the ghost source state, what the spec's
// Pickup must return at this instant.
func specPickup(g *core.Ctx, user uint64) []Message {
	s := g.Source().(State)
	return s.MessagesOf(user)
}

// modelT asserts the modeled thread handle; ghost annotations only run
// under the model checker (the OS backend passes a nil ghost context).
func modelT(t gfs.T) *machine.T { return t.(*machine.T) }
