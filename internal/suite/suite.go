// Package suite assembles the canonical verification suite: every
// verified artifact's model-checking scenario plus the seeded-bug
// variants that must produce counterexamples. cmd/perennial-check runs
// it (the reproduction's analog of `coqc` checking the paper's proofs),
// and the Table 3 benchmarks measure it.
package suite

import (
	"slices"

	"repro/internal/examples/groupcommit"
	"repro/internal/examples/replicateddisk"
	"repro/internal/examples/shadowcopy"
	"repro/internal/examples/wal"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/mailboat"
	"repro/internal/repl"
)

// Entry is one scenario plus how to run it and what to expect.
type Entry struct {
	// Pattern groups entries by paper artifact ("replicated-disk",
	// "shadow-copy", "wal", "group-commit", "mailboat").
	Pattern string
	// Scenario is the checkable system.
	Scenario *explore.Scenario
	// Opts bounds the exploration.
	Opts explore.Options
	// WantViolation is true for seeded-bug entries.
	WantViolation bool
}

// Verdict judges rep, the report of a search of e, against what e
// wants: a counterexample for a seeded bug, none for a verified entry.
// A checker error (rep.Err) is no verdict, and never passes: it
// convicts no seeded bug. status is perennial-check's status column.
func (e Entry) Verdict(rep *explore.Report) (status string, ok bool) {
	switch {
	case rep.Err != nil:
		return "FAIL (checker error)", false
	case e.WantViolation && rep.Counterexample == nil:
		return "FAIL (expected a counterexample, found none)", false
	case !e.WantViolation && rep.Counterexample != nil:
		return "FAIL", false
	case e.WantViolation:
		return "PASS (bug found as expected)", true
	}
	return "PASS", true
}

// Verified returns the scenarios that must check clean, covering all
// four crash-safety patterns of §9.1 plus Mailboat.
func Verified() []Entry {
	return slices.Concat(patternsVerified(), mailboatEntries(mailboatVerified, false), replVerified())
}

func patternsVerified() []Entry {
	return []Entry{
		{
			Pattern: "replicated-disk",
			Scenario: replicateddisk.Verified("rd/two-writers+crash", replicateddisk.ScenarioOptions{
				Size:       1,
				Writers:    []replicateddisk.OpWrite{{A: 0, V: 1}, {A: 0, V: 2}},
				MaxCrashes: 1,
				PostReads:  []uint64{0},
			}),
			Opts: explore.Options{MaxExecutions: 5000},
		},
		{
			Pattern: "replicated-disk",
			Scenario: replicateddisk.Verified("rd/failover", replicateddisk.ScenarioOptions{
				Size:       1,
				Writers:    []replicateddisk.OpWrite{{A: 0, V: 3}},
				D1MayFail:  true,
				MaxCrashes: 1,
				PostReads:  []uint64{0, 0},
			}),
			Opts: explore.Options{MaxExecutions: 5000},
		},
		{
			Pattern: "shadow-copy",
			Scenario: shadowcopy.Scenario("sc/writer+reader+crash", shadowcopy.VariantVerified, shadowcopy.ScenarioOptions{
				Writers:    []shadowcopy.OpWrite{{V1: 1, V2: 2}},
				Readers:    1,
				MaxCrashes: 1,
				PostReads:  1,
			}),
			Opts: explore.Options{MaxExecutions: 10000},
		},
		{
			Pattern: "wal",
			Scenario: wal.Scenario("wal/txn+double-crash", wal.VariantVerified, wal.ScenarioOptions{
				Writers:    []wal.OpWrite{{V1: 1, V2: 2}},
				MaxCrashes: 2,
				PostReads:  1,
			}),
			Opts: explore.Options{MaxExecutions: 10000},
		},
		{
			Pattern: "group-commit",
			Scenario: groupcommit.Scenario("gc/write+flush+crash", groupcommit.VariantVerified, groupcommit.ScenarioOptions{
				Steps:      []groupcommit.Step{{Write: &groupcommit.OpWrite{V1: 1, V2: 2}}, {Flush: true}},
				MaxCrashes: 1,
				PostReads:  1,
			}),
			Opts: explore.Options{MaxExecutions: 10000},
		},
		{
			Pattern: "journal",
			Scenario: journal.Scenario("journal/txn+double-crash", journal.VariantVerified, journal.ScenarioOptions{
				Size:       2,
				Txns:       [][]journal.Write{{{A: 0, V: 1}, {A: 1, V: 2}}},
				MaxCrashes: 2,
				PostReads:  []uint64{0, 1},
			}),
			Opts: explore.Options{MaxExecutions: 10000},
		},
	}
}

func replVerified() []Entry {
	return []Entry{
		{
			// Primary/backup replication over the modeled lossy network:
			// one whole-site crash may interleave with one enumerated
			// network fault (drop, duplicate, reorder, partition burst,
			// dropped reply); recovery re-elects by epoch and resyncs. The
			// acked history must refine the UNCHANGED atomic mailboat spec
			// and settled stores must be byte-identical.
			Pattern: "mailboat-repl",
			Scenario: repl.Scenario("mb/replicated+crash+net", repl.ScenarioOptions{
				Config:      mailboat.Config{Users: 1, RandBound: 4, SyncOnDeliver: true, SyncDirs: true},
				Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
				PickupUsers: []uint64{0},
				PostPickups: true,
				MaxCrashes:  1,
				Faults:      oneNetFault,
			}),
			Opts: explore.Options{MaxExecutions: 20000},
		},
		{
			// Fail-stop of either node at any operation: the failover path
			// (promote by epoch, ack alone) must keep every acked
			// operation visible.
			Pattern: "mailboat-repl",
			Scenario: repl.Scenario("mb/replicated+failstop", repl.ScenarioOptions{
				Config:      mailboat.Config{Users: 1, RandBound: 4, SyncOnDeliver: true, SyncDirs: true},
				Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
				PickupUsers: []uint64{0},
				PostPickups: true,
				Faults:      oneFailStop,
			}),
			Opts: explore.Options{MaxExecutions: 20000},
		},
	}
}

// Bugs returns the seeded-bug scenarios that must produce
// counterexamples (§1, §3.1, §9.5).
func Bugs() []Entry {
	return slices.Concat(patternsBugs(), mailboatEntries(mailboatBugs, true), replBugs())
}

func patternsBugs() []Entry {
	return []Entry{
		{
			Pattern:       "replicated-disk",
			WantViolation: true,
			Scenario: replicateddisk.BugNoRecovery("rd/bug:no-recovery", replicateddisk.ScenarioOptions{
				Size:       1,
				Writers:    []replicateddisk.OpWrite{{A: 0, V: 1}},
				D1MayFail:  true,
				MaxCrashes: 1,
				PostReads:  []uint64{0, 0},
			}),
			Opts: explore.Options{MaxExecutions: 20000},
		},
		{
			Pattern:       "replicated-disk",
			WantViolation: true,
			Scenario: replicateddisk.BugZeroingRecovery("rd/bug:zeroing-recovery", replicateddisk.ScenarioOptions{
				Size:       1,
				Writers:    []replicateddisk.OpWrite{{A: 0, V: 1}, {A: 0, V: 2}},
				MaxCrashes: 1,
				PostReads:  []uint64{0},
			}),
			Opts: explore.Options{MaxExecutions: 20000},
		},
		{
			Pattern:       "shadow-copy",
			WantViolation: true,
			Scenario: shadowcopy.Scenario("sc/bug:in-place-write", shadowcopy.VariantInPlace, shadowcopy.ScenarioOptions{
				Writers:    []shadowcopy.OpWrite{{V1: 1, V2: 2}},
				MaxCrashes: 1,
				PostReads:  1,
			}),
			Opts: explore.Options{MaxExecutions: 20000},
		},
		{
			Pattern:       "wal",
			WantViolation: true,
			Scenario: wal.Scenario("wal/bug:recover-clear-only", wal.VariantRecoverClearOnly, wal.ScenarioOptions{
				Writers:    []wal.OpWrite{{V1: 1, V2: 2}},
				MaxCrashes: 1,
				PostReads:  1,
			}),
			Opts: explore.Options{MaxExecutions: 20000},
		},
		{
			Pattern:       "group-commit",
			WantViolation: true,
			Scenario: groupcommit.Scenario("gc/bug:racy-read", groupcommit.VariantRacyRead, groupcommit.ScenarioOptions{
				Steps: []groupcommit.Step{{Write: &groupcommit.OpWrite{V1: 1, V2: 2}}, {Read: true}},
			}),
			Opts: explore.Options{MaxExecutions: 20000},
		},
		{
			Pattern:       "journal",
			WantViolation: true,
			Scenario: journal.Scenario("journal/bug:recover-skips-redo", journal.VariantRecoverSkip, journal.ScenarioOptions{
				Size:       2,
				Txns:       [][]journal.Write{{{A: 0, V: 1}, {A: 1, V: 2}}},
				MaxCrashes: 1,
				PostReads:  []uint64{0, 1},
			}),
			Opts: explore.Options{MaxExecutions: 20000},
		},
	}
}

func replBugs() []Entry {
	return []Entry{
		{
			// The replication layer's analogue of acking before fsync: the
			// primary acks after its local publish without waiting for the
			// backup. A fail-stop of the primary right after the ack and a
			// failover to the never-told backup lose acked mail.
			Pattern:       "mailboat-repl",
			WantViolation: true,
			Scenario: repl.Scenario("mb/repl-bug:ack-before-backup", repl.ScenarioOptions{
				Config:      mailboat.Config{Users: 1, RandBound: 4, SyncOnDeliver: true, SyncDirs: true},
				Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
				PickupUsers: []uint64{0},
				PostPickups: true,
				Faults:      oneFailStop,
				Variant:     repl.VariantAckBeforeBackup,
			}),
			Opts: explore.Options{MaxExecutions: 400000},
		},
		{
			// Catch-up resync without an epoch bump: a reordered replicate
			// frame held across a site crash lands after the catch-up,
			// walks through the un-bumped epoch gate, and consumes a
			// sequence number in the new run's space — the stores diverge.
			// No main-era pickup thread: the post-era session exposes it
			// and keeps the search shallow.
			Pattern:       "mailboat-repl",
			WantViolation: true,
			Scenario: repl.Scenario("mb/repl-bug:resync-skips-epoch", repl.ScenarioOptions{
				Config:      mailboat.Config{Users: 1, RandBound: 4, SyncOnDeliver: true, SyncDirs: true},
				Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
				PostPickups: true,
				MaxCrashes:  1,
				Faults:      oneReorder,
				Variant:     repl.VariantResyncSkipsEpoch,
			}),
			Opts: explore.Options{MaxExecutions: 400000},
		},
	}
}

// mailboatEntry is one mail-store scenario of the suite: a row of
// package-level data, so that building the suite (what the benchmark's
// check-suite/setup_s times) allocates the scenario and nothing for its
// options, and so that a test can ask which parts each entry runs over.
type mailboatEntry struct {
	pattern, name string
	variant       mailboat.Variant
	max           int
	opts          mailboat.ScenarioOptions
}

func mailboatEntries(rows []mailboatEntry, wantViolation bool) []Entry {
	es := make([]Entry, len(rows))
	for i, r := range rows {
		es[i] = Entry{
			Pattern:       r.pattern,
			Scenario:      mailboat.Scenario(r.name, r.variant, r.opts),
			Opts:          explore.Options{MaxExecutions: r.max},
			WantViolation: wantViolation,
		}
	}
	return es
}

// The fault budgets the entries spend, each one fault of one class, or
// of the network's five, per execution.
var (
	oneFailedSync = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.Sync)}
	oneDiskFull   = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.NoSpace)}
	oneFailStop   = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.FailStop)}
	oneCorruption = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.Corrupt)}
	oneNetFault   = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.Drop, fault.Dup, fault.Reorder, fault.DropReply, fault.Partition)}
	oneReorder    = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.Reorder)}
)

var mailboatVerified = []mailboatEntry{
	{
		"mailboat", "mb/deliver+pickup+crash", mailboat.VariantVerified, 10000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
			PickupUsers: []uint64{0},
			MaxCrashes:  1,
			PostPickups: true,
		},
	},
	{
		"mailboat-buffered", "mb/buffered-fs+fsync", mailboat.VariantVerified, 10000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2, SyncOnDeliver: true},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "fsynced"}},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Buffered,
		},
	},
	{
		// Full writeback semantics: un-synced directory operations are
		// lost (prefix-per-directory) at a crash alongside un-synced
		// file data. The disciplined implementation — fsync before
		// link, SyncDir before every ack — must still refine the spec
		// while the explorer enumerates every surviving prefix.
		"mailboat-writeback", "mb/writeback+sync-discipline", mailboat.VariantVerified, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "durable"}},
			PickupUsers: []uint64{0},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Writeback,
		},
	},
	{
		// fault.Sync × writeback: the chooser may fail any Sync or
		// SyncDir while the crash enumeration drops un-synced state. A
		// failed barrier is not a barrier — the implementation must
		// abandon the spool file (fsyncgate) or retry the directory
		// sync, never ack on the failed attempt.
		"mailboat-writeback", "mb/writeback+failed-sync", mailboat.VariantVerified, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "barrier"}},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Writeback,
			Faults:      oneFailedSync,
		},
	},
	{
		// The buffered contract of the barrier-free fast mode
		// (mailboatd -no-fsync): a crash may take back acked mail, but
		// what survives is, per mailbox, the state after a prefix of
		// its operations since the last crash, with torn bodies only
		// where a link outlived its data (mailboat.PrefixSpec). This is
		// the checked spec behind the README caveat. With sleep sets and
		// crash states evaluated in place the complete search is 1,030
		// executions on one worker, inside the 8,000 budget (1.73M
		// without the reductions); mailboat's
		// TestWritebackPrefixContractClean runs it to completion at any
		// worker count.
		"mailboat-writeback", "mb/writeback+prefix-contract", mailboat.VariantVerified, 8000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 4},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "first"}, {User: 0, Msg: "second"}},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Writeback,
			Property:    mailboat.Prefix,
		},
	},
	{
		// Disk-full as a first-class fault: the chooser may latch the
		// store ENOSPC at any eligible write (budget 1), after which
		// every write fails until a delete frees space. The annotated
		// implementation must abort cleanly — never ack-then-lose —
		// under concurrent delivery and pickup, and full refinement
		// holds: an aborted delivery is the spec's transient failure,
		// nothing more. Exhaustive (the search completes) at this
		// budget; the crash × latch interaction is gc-reclaims' job.
		"mailboat-nospace", "mb/nospace+clean-abort", mailboat.VariantVerified, 40000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
			PickupUsers: []uint64{0},
			PostPickups: true,
			Faults:      oneDiskFull,
		},
	},
	{
		// The exhaustion contract across TWO crash/recovery boundaries
		// (also the regression gate for budget accounting: a fill spent
		// before a crash stays spent after each reboot). Acked mail
		// survives ENOSPC (refinement), recovery's orphan-spool sweep
		// doubles as the garbage collector that returns space, and
		// post-recovery writability tracks the latch — freed space must
		// accept a probe delivery, a still-full store must refuse it
		// cleanly. Exhaustive at this budget.
		"mailboat-nospace", "mb/nospace+gc-reclaims", mailboat.VariantVerified, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
			MaxCrashes:  2,
			PostPickups: true,
			Faults:      oneDiskFull,
			Property:    mailboat.Exhaustion,
		},
	},
	{
		// Table 3 parity with rd/failover, on the full server: the
		// mirrored store must refine the spec while the explorer kills
		// one replica at any operation and crashes at any step, with
		// recovery resilvering the replacement back to byte-identical.
		"mailboat-mirror", "mb/mirror+replica-death+crash", mailboat.VariantVerified, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
			MaxCrashes:  1,
			PostPickups: true,
			Mirror:      true,
			Faults:      oneFailStop,
		},
	},
	{
		// Silent corruption on a single backend: the chooser may
		// durably flip or truncate one file's bytes at any open. With
		// no redundant copy the contract is detection: a pickup must
		// never serve bytes nobody delivered, and an acked message may
		// only go missing at an observation that saw the envelope layer
		// detect rot (mailboat.DetectionSpec).
		"mailboat-corrupt", "mb/corrupt+scrub", mailboat.VariantVerified, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "the quick brown fox."}},
			MaxCrashes:  1,
			PostPickups: true,
			Checksum:    true,
			Faults:      oneCorruption,
			Property:    mailboat.Detection,
		},
	},
	{
		// Silent corruption on the mirrored store: per-replica
		// envelopes, heal-on-read, the resilver's integrity gate, and
		// the recovery scrub together make rot invisible — full
		// refinement plus the byte-identical invariant hold.
		"mailboat-mirror-corrupt", "mb/mirror+corrupt-heal", mailboat.VariantVerified, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "m"}},
			MaxCrashes:  1,
			PostPickups: true,
			Mirror:      true,
			Checksum:    true,
			Faults:      oneCorruption,
		},
	},
}

var mailboatBugs = []mailboatEntry{
	{
		"mailboat", "mb/bug:unspooled-delivery", mailboat.VariantDeliverDirect, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "full message"}},
			PickupUsers: []uint64{0},
		},
	},
	{
		"mailboat-buffered", "mb/bug:buffered-fs-no-fsync", mailboat.VariantVerified, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "needs fsync"}},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Buffered,
		},
	},
	{
		// Recovery that swaps in the replacement replica but forgets
		// to resilver it: the replacement serves stale reads (or the
		// mirror stays flagged degraded with both replicas live).
		"mailboat-mirror", "mb/mirror-bug:no-resilver", mailboat.VariantRecoverNoResilver, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
			MaxCrashes:  1,
			PostPickups: true,
			Mirror:      true,
			Faults:      oneFailStop,
		},
	},
	{
		// The envelope layer decodes without verifying checksums: a
		// bit flip in a data payload is served to a pickup as bytes
		// nobody sent, and a flip that breaks framing loses the
		// message with the detection counter still at zero — both
		// refinement failures against mailboat.DetectionSpec.
		"mailboat-corrupt", "mb/integrity-bug:trust-read", mailboat.VariantTrustReads, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "the quick brown fox."}},
			MaxCrashes:  1,
			PostPickups: true,
			Checksum:    true,
			Faults:      oneCorruption,
			Property:    mailboat.Detection,
		},
	},
	{
		// The resilver copies source bytes without checking their
		// envelope: rot injected at the resilver's own read of the
		// source replicates onto the peer, leaving an ACKED message
		// unreadable everywhere — a refinement violation at the post
		// pickup. Two concurrent delivers let the first be acked
		// before the crash.
		"mailboat-mirror-corrupt", "mb/integrity-bug:no-verify-resilver", mailboat.VariantResilverNoVerify, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
			MaxCrashes:  1,
			PostPickups: true,
			Mirror:      true,
			Checksum:    true,
			Faults:      oneCorruption,
		},
	},
	{
		// A recovery that replays leftover spool files into the
		// mailbox, wrongly assuming a crashed spool file is either
		// empty or complete: only a TORN crash tail — a partial
		// prefix of the delivery's one-byte appends — exposes it.
		"mailboat-buffered", "mb/torn-bug:replay-spool", mailboat.VariantReplaySpool, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2, SyncOnDeliver: true},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "ab"}},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Buffered,
		},
	},
	{
		// The classic missing-fsync-of-the-directory bug: the deliver
		// fsyncs the spool data but acks as soon as the link lands,
		// without a SyncDir barrier. Under writeback the crash drops
		// the un-synced directory entry and the ACKED message is
		// gone — a refinement violation at the post pickup. Two
		// concurrent delivers so the crash can land after the first
		// one acks (a lone deliver has no machine step left to crash
		// at once it returns).
		"mailboat-writeback", "mb/sync-bug:ack-before-sync", mailboat.VariantAckBeforeSync, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "acked"}, {User: 0, Msg: "racer"}},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Writeback,
		},
	},
	{
		// The dual bug on the delete path: the unlink is acked with no
		// directory barrier, the crash resurrects the entry from the
		// durable view, and recovery trusts whatever entries survived.
		// The post pickup then returns a message the spec already
		// deleted — no linearization exists.
		"mailboat-writeback", "mb/sync-bug:recover-trusts-cache", mailboat.VariantRecoverTrustsCache, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "doomed"}},
			PickupUsers: []uint64{0},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Writeback,
		},
	},
	{
		// Acking a delivery the full disk refused: nothing was
		// published — the spool write never landed — but the client
		// hears yes, and the post pickup finds nothing: a refinement
		// failure.
		"mailboat-nospace", "mb/nospace-bug:ack-after-enospc", mailboat.VariantDeliverAckOnNoSpace, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
			MaxCrashes:  1,
			PostPickups: true,
			Faults:      oneDiskFull,
			Property:    mailboat.Exhaustion,
		},
	},
	{
		// A delivery-time "GC" that sweeps the whole spool directory on
		// ENOSPC: recovery may sweep (it runs single-threaded, where
		// every spool file is an orphan), but during operation a spool
		// file may be a concurrent delivery's live, not-yet-linked
		// message — eating it makes that delivery's link source vanish,
		// which the model's link assertion catches red-handed.
		"mailboat-nospace", "mb/nospace-bug:gc-eats-live-spool", mailboat.VariantDeliverGreedySpoolGC, 40000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
			PostPickups: true,
			Faults:      oneDiskFull,
			Property:    mailboat.Exhaustion,
		},
	},
	{
		// A recovery that deletes the messages a barrier-free crash
		// left empty: when the first of two deliveries returned before
		// the second began, a crash may keep both links but tear the
		// first body, and deleting it leaves the second above a hole —
		// no prefix of the log, a refinement failure against
		// mailboat.PrefixSpec.
		"mailboat-writeback", "mb/prefix-bug:recover-drops-torn", mailboat.VariantRecoverDropsTorn, 20000,
		mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "first"}, {User: 0, Msg: "second"}},
			MaxCrashes:  1,
			PostPickups: true,
			Crash:       mailboat.Writeback,
			Property:    mailboat.Prefix,
		},
	},
}

// All returns the verified scenarios followed by the bug scenarios.
func All() []Entry {
	return append(Verified(), Bugs()...)
}
