package mailboat

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/spec"
)

// World carries the store and ghost state across eras of one checked
// execution.
type World struct {
	G *core.Ctx
	// FS are the backend models (both set under a mirror, else only
	// FS[0]) and Stack the layers gfs.NewStack composed over them — the
	// constructor the daemon boots on (DESIGN.md "Storage stack"). The
	// library runs on Stack.Top; the dedup fingerprint covers Stack's
	// checker state.
	FS    [2]*gfs.Model
	Stack *gfs.Stack
	MB    *Mailboat
	// Acked is the set of message payloads whose delivery the workload
	// saw acknowledged — the ground truth of the detection and
	// exhaustion properties (nil in refinement scenarios).
	Acked map[string]bool
}

// ackedSorted returns the acked payloads in a deterministic order.
func (w *World) ackedSorted() []string {
	acked := make([]string, 0, len(w.Acked))
	for msg := range w.Acked {
		acked = append(acked, msg)
	}
	sort.Strings(acked)
	return acked
}

// Variant selects the implementation under check: a row of optional
// overrides, each replacing one production entry point (or one stack
// flag) with a seeded bug from bugs.go. A nil field is the production
// code; the zero Variant is the verified implementation, and the only
// one that runs ghost-annotated. Seeding a mutation is adding a row
// (DESIGN.md §4n lists them with their scenarios).
type Variant struct {
	Deliver func(mb *Mailboat, t gfs.T, user uint64, msg []byte) bool
	Pickup  func(mb *Mailboat, t gfs.T, user uint64) []Message
	Delete  func(mb *Mailboat, t gfs.T, user uint64, id string) bool
	Recover func(t gfs.T, sys gfs.System, cfg Config) *Mailboat
	// Stack sets a mutation flag on the composed storage stack.
	Stack func(*gfs.Stack)
}

var (
	// VariantVerified is the ghost-annotated implementation.
	VariantVerified = Variant{}
	// VariantDeliverDirect writes into the mailbox without spooling.
	VariantDeliverDirect = Variant{Deliver: (*Mailboat).deliverDirect}
	// VariantPickupNoAdvance has the §9.5 infinite read loop.
	VariantPickupNoAdvance = Variant{Pickup: (*Mailboat).pickupNoAdvance}
	// VariantPickupLeaky leaks message file descriptors (§9.5).
	VariantPickupLeaky = Variant{Pickup: (*Mailboat).pickupLeaky}
	// VariantRecoverWipes destroys mailboxes during recovery.
	VariantRecoverWipes = Variant{Recover: recoverWipesMailboxes}
	// VariantForgetSpoolDelete leaves spool entries behind (benign).
	VariantForgetSpoolDelete = Variant{Deliver: (*Mailboat).deliverForgetSpoolDelete}
	// VariantRecoverNoResilver skips the mirror-repair step during
	// recovery (only meaningful with ScenarioOptions.Mirror).
	VariantRecoverNoResilver = Variant{Recover: recoverSkipResilver}
	// VariantTrustReads serves reads without verifying the checksum
	// envelope (gfs.Checksummed.TrustReads) — the silent-corruption bug
	// the detection scenarios catch as garbage served to a pickup. Needs
	// ScenarioOptions.Corrupt (there is no envelope to blind without it).
	VariantTrustReads = Variant{Stack: func(s *gfs.Stack) { s.Checksummed(0).TrustReads = true }}
	// VariantResilverNoVerify skips the resilver's source integrity
	// check (gfs.Mirrored.ResilverNoVerify), so a survivor that rotted
	// on the shelf is copied verbatim over the good replica. Needs
	// ScenarioOptions.Mirror, and only bites with Corrupt.
	VariantResilverNoVerify = Variant{Stack: func(s *gfs.Stack) { s.Mirror().ResilverNoVerify = true }}
	// VariantReplaySpool delivers with one-byte appends and recovers by
	// replaying non-empty spool files into the mailbox — a design that
	// wrongly assumes a crashed spool file is either empty or complete.
	// Only a TORN crash tail (a partial prefix of the unsynced appends)
	// exposes it; whole-tail loss leaves nothing to replay. Only
	// meaningful with BufferedFS.
	VariantReplaySpool = Variant{Deliver: (*Mailboat).deliverTinyAppends, Recover: recoverReplaySpool}
	// VariantAckBeforeSync delivers with the full spool-sync-link
	// protocol but acknowledges as soon as the link lands, skipping the
	// directory barrier — so on a writeback store an acked message's
	// directory entry may still be sitting in the cache and be lost at
	// a crash. Only meaningful with Writeback.
	VariantAckBeforeSync = Variant{Deliver: (*Mailboat).deliverAckBeforeSync}
	// VariantRecoverTrustsCache acknowledges deletes straight from the
	// directory cache (no barrier after the unlink): a crash may
	// resurrect the entry, and recovery — trusting whatever directory
	// entries survived — serves the message the user already deleted.
	// Only meaningful with Writeback.
	VariantRecoverTrustsCache = Variant{Delete: (*Mailboat).deleteNoBarrier}
	// VariantDeliverAckOnNoSpace acknowledges a delivery the full disk
	// refused (nothing published) — acked-but-absent. Only meaningful
	// with NoSpaceGC.
	VariantDeliverAckOnNoSpace = Variant{Deliver: (*Mailboat).deliverAckOnNoSpace}
	// VariantDeliverGreedySpoolGC sweeps the whole spool directory when
	// a delivery hits a full disk, eating concurrent deliveries' live
	// spooled-but-unlinked files. Only meaningful with NoSpaceGC.
	VariantDeliverGreedySpoolGC = Variant{Deliver: (*Mailboat).deliverGreedySpoolGC}
)

// verified reports whether v overrides nothing.
func (v Variant) verified() bool {
	return v.Deliver == nil && v.Pickup == nil && v.Delete == nil && v.Recover == nil && v.Stack == nil
}

// deliverVia runs op's delivery and reports what it reported: the row's
// override if it has one, else production Deliver — ghost-annotated
// when the scenario is.
func deliverVia(override func(*Mailboat, gfs.T, uint64, []byte) bool, t *machine.T, w *World, ghost bool, op OpDeliver) bool {
	if override != nil {
		return override(w.MB, t, op.User, []byte(op.Msg))
	}
	var j *core.JTok
	if ghost {
		j = w.G.NewJTok(op)
	}
	delivered := w.MB.Deliver(t, j, op.User, []byte(op.Msg))
	if ghost {
		w.G.FinishOp(t, j, delivered)
	}
	return delivered
}

// ScenarioOptions shapes the workload.
type ScenarioOptions struct {
	// Config sizes the store; RandBound should stay small (≤4).
	Config Config
	// Delivers spawns one delivery thread per entry.
	Delivers []OpDeliver
	// PickupUsers spawns, per entry, a thread doing Pickup(u), Delete of
	// the first message if any, then Unlock(u).
	PickupUsers []uint64
	// MaxCrashes bounds injected crashes.
	MaxCrashes int
	// PostPickups reads each user's mailbox at the end (Pickup+Unlock).
	PostPickups bool
	// BufferedFS runs the scenario on the deferred-durability file
	// system (gfs.NewBufferedModel) instead of the strict model — the
	// §6.2 future-work extension. Crash safety then additionally
	// requires Config.SyncOnDeliver.
	BufferedFS bool
	// Writeback runs the scenario on the full writeback file system
	// (gfs.NewWritebackModel): file data behaves as under BufferedFS,
	// and directory operations additionally live in a volatile cache
	// until SyncDir — at a crash each directory keeps an enumerated
	// prefix of its un-synced operations (chooser tag "writeback").
	// Crash safety then requires Config.SyncOnDeliver AND
	// Config.SyncDirs. Writeback scenarios run ghost-free: the ghost
	// machinery commits the spec step atomically with the link, which a
	// writeback crash can roll back, so refinement rests on the
	// black-box history check. Implies BufferedFS semantics; like
	// BufferedFS it composes with FaultBudget and NoSpaceGC but not with
	// Mirror or Corrupt (gfs.StackSpec.Validate has the rules).
	Writeback bool
	// PrefixContract (requires Writeback) checks the honest contract
	// of the barrier-free fast mode (mailboatd -no-fsync) instead of
	// refinement: deliveries run sequentially with no history, and
	// after the final recovery the surviving mailbox must be a no-holes
	// prefix of the delivery order — a crash may take back the
	// newest un-synced deliveries (even acked ones: that is the mode's
	// documented weakness) and may leave a torn (empty) message whose
	// link survived its data, but it must never reorder, fabricate, or
	// punch holes. This is the durable-linearizability-vs-buffered
	// distinction of "The Path to Durable Linearizability", checked as
	// a property.
	PrefixContract bool
	// FaultBudget, when positive, wraps the model in gfs.Faulty with a
	// chooser-driven policy: at every eligible file-system operation
	// the explorer branches on injecting a transient fault, up to this
	// many faults per execution. Combined with MaxCrashes this checks
	// the spec under crash + transient-fault interleavings.
	FaultBudget int
	// FaultOps restricts which fault classes the chooser may inject
	// (nil = all). Narrowing the classes keeps the DFS space small.
	FaultOps []gfs.FaultOp
	// Mirror runs the library on a gfs.Mirrored pair of models, each
	// behind a fail-stop fault layer sharing one chooser budget of 1: at
	// every file-system operation the explorer branches on permanently
	// killing that replica, so every execution sees at most one replica
	// death at any possible step. Crashes model the whole site
	// rebooting; the recovery era revives and replaces any dead replica
	// before the library's Recover runs (which resilvers it). Mirror
	// scenarios run ghost-free — a mirrored Link is two machine steps,
	// which breaks the one-atomic-step linearization the ghost machinery
	// assumes — so refinement rests on the black-box history check, plus
	// a between-era availability invariant (redundancy restored after
	// recovery, replicas byte-identical, no leaked descriptors). Runs on
	// the strict model with its own policy: refused with BufferedFS,
	// Writeback (gfs.StackSpec.Validate) or FaultBudget.
	Mirror bool
	// NoSpaceGC runs the resource-exhaustion property scenario: the
	// store sits behind gfs.Faulty with the disk-full latch armed
	// (combine with FaultBudget 1 and FaultOps [FaultNoSpace]), so the
	// chooser may latch the store ENOSPC at any eligible write — every
	// subsequent write fails until a delete frees space. Deliveries run
	// history-free, tracking which were acknowledged, and after the
	// final recovery Post asserts the exhaustion contract: no acked
	// delivery is missing (ENOSPC may refuse work, never take back an
	// ack), no served bytes were never delivered, and writability
	// matches the latch — once recovery's orphan-spool GC (or a clean
	// abort's own spool delete) has freed space the store must accept
	// fresh mail, and while still full it must refuse cleanly with the
	// mailbox unchanged. Ghost-free: the property, not refinement, is
	// the claim. Requires FaultBudget (the latch lives in the fault
	// layer), so it inherits FaultBudget's refusal of Mirror and Corrupt;
	// it composes with BufferedFS and Writeback
	// (TestWritebackNoSpaceExhaustive) but not with PrefixContract.
	NoSpaceGC bool
	// Corrupt arms the silent-corruption fault class: the store runs
	// behind gfs.Checksummed over a gfs.Faulty whose chooser-driven
	// policy may durably corrupt one file's bytes (bit flip or
	// truncation, enumerated as separate branches) at any file open,
	// budget one per execution. Without Mirror the scenario is ghost-
	// and history-free and checks the DETECTION property instead of
	// refinement — with no redundant copy, corruption may lose data,
	// but never silently: a pickup must never return bytes that were
	// never delivered, and an acknowledged delivery may only go missing
	// if the integrity layer detected rot. With Mirror, each replica
	// gets its own envelope and the full refinement + byte-identical
	// invariant stands: the mirror must heal rot from the peer, so
	// corruption is never visible at all. Runs on the strict model with
	// its own policy: refused with BufferedFS, Writeback
	// (gfs.StackSpec.Validate) or FaultBudget.
	Corrupt bool
}

// replicas is the number of backend models the scenario runs on.
func (o ScenarioOptions) replicas() int {
	if o.Mirror {
		return 2
	}
	return 1
}

// check refuses the combinations Scenario would otherwise accept and
// silently ignore. Which layers compose over which crash model is
// gfs.StackSpec.Validate's table; the rules here are about options that
// need, or would override, one another.
func (o ScenarioOptions) check() error {
	switch {
	case o.PrefixContract && !o.Writeback:
		return errors.New("PrefixContract requires Writeback: on any other model every delivery is durable when acked, and the prefix property degenerates to refinement")
	case o.NoSpaceGC && o.FaultBudget <= 0:
		return errors.New("NoSpaceGC requires FaultBudget (with FaultOps [FaultNoSpace]): the disk-full latch lives in the fault layer")
	case o.NoSpaceGC && o.PrefixContract:
		return errors.New("NoSpaceGC and PrefixContract each replace the scenario's Post property; only one can be checked")
	case o.FaultBudget > 0 && (o.Mirror || o.Corrupt):
		return errors.New("FaultBudget would be ignored: Mirror and Corrupt fix the execution's fault policy at one fail-stop or one corruption")
	}
	return gfs.StackSpec{Checksum: o.Corrupt}.Validate(o.replicas(), o.BufferedFS || o.Writeback)
}

// policy builds the execution's chooser-driven fault policy; nil when
// the scenario injects nothing. A ChooserPolicy is per-execution state,
// so Setup calls this afresh. Mirror and Corrupt spend a budget of one —
// a replica death, or one silent corruption — on whichever replica and
// operation the chooser picks.
func (o ScenarioOptions) policy() gfs.Policy {
	budget, ops := o.FaultBudget, o.FaultOps
	switch {
	case o.Corrupt:
		budget, ops = 1, []gfs.FaultOp{gfs.FaultCorrupt}
	case o.Mirror:
		budget, ops = 1, []gfs.FaultOp{gfs.FaultFailStop}
	}
	if budget <= 0 {
		return nil
	}
	pol := &gfs.ChooserPolicy{Budget: budget}
	if ops != nil {
		pol.Eligible = make(map[gfs.FaultOp]bool, len(ops))
		for _, op := range ops {
			pol.Eligible[op] = true
		}
	}
	return pol
}

// Scenario builds the checkable scenario for the chosen variant.
func Scenario(name string, v Variant, o ScenarioOptions) *explore.Scenario {
	if err := o.check(); err != nil {
		panic(fmt.Sprintf("mailboat.Scenario refused %s: %v", name, err))
	}
	// The hooks below each capture the one override they consult, not
	// the row: a closure carries a copy of what it captures, a row is
	// five words, and construction is what check-suite's setup_s times.
	deliverBug, pickupBug, deleteBug, recoverBug, stackBug := v.Deliver, v.Pickup, v.Delete, v.Recover, v.Stack
	ghost := v.verified() && !o.Mirror && !o.Corrupt && !o.Writeback && !o.NoSpaceGC
	// The single-backend corruption scenario checks detection, not
	// refinement: it records no history (deliveries and pickups run
	// outside the harness) and asserts its property directly in Post.
	detectOnly := o.Corrupt && !o.Mirror
	// The resource-exhaustion scenario likewise checks a property (no
	// acked loss, GC reclaims, writability tracks the latch) in Post.
	nospaceOnly := o.NoSpaceGC
	// The prefix-contract scenario likewise checks a property, not
	// refinement: barrier-free delivery cannot refine the spec (acked
	// mail may be taken back), so the claim under check is the weaker
	// prefix-durability contract asserted in Post.
	prefixOnly := o.PrefixContract
	sp := Spec(o.Config)
	steps := 3000
	if o.Mirror {
		// Every operation runs twice (once per replica) and each
		// recovery resilvers the whole store.
		steps = 9000
	}
	if o.Corrupt {
		// Envelope verification re-reads whole files on every open, and
		// recovery adds a scrub pass over the store.
		steps *= 2
	}

	deliver := func(t *machine.T, w *World, h *explore.Harness, op OpDeliver) {
		if detectOnly || nospaceOnly {
			// History-free: the acked set is the property's ground truth.
			// An acked payload is the property's obligation — it may go
			// missing only if the integrity layer said so (detection),
			// or never (exhaustion).
			if deliverVia(deliverBug, t, w, false, op) {
				w.Acked[op.Msg] = true
			}
			return
		}
		h.Op(op, func() spec.Ret { return deliverVia(deliverBug, t, w, ghost, op) })
	}

	pickup := func(t *machine.T, w *World, h *explore.Harness, user uint64) []Message {
		op := OpPickup{User: user}
		ret := h.Op(op, func() spec.Ret {
			if pickupBug != nil {
				return pickupBug(w.MB, t, user)
			}
			var j *core.JTok
			if ghost {
				j = w.G.NewJTok(op)
			}
			msgs := w.MB.Pickup(t, j, user)
			if ghost {
				w.G.FinishOp(t, j, msgs)
			}
			return msgs
		})
		return ret.([]Message)
	}

	unlock := func(t *machine.T, w *World, h *explore.Harness, user uint64) {
		op := OpUnlock{User: user}
		h.Op(op, func() spec.Ret {
			var j *core.JTok
			if ghost {
				j = w.G.NewJTok(op)
			}
			w.MB.Unlock(t, j, user)
			if ghost {
				w.G.FinishOp(t, j, nil)
			}
			return nil
		})
	}

	pickupDeleteUnlock := func(t *machine.T, w *World, h *explore.Harness, user uint64) {
		msgs := pickup(t, w, h, user)
		if len(msgs) > 0 {
			op := OpDelete{User: user, ID: msgs[0].ID}
			h.Op(op, func() spec.Ret {
				if deleteBug != nil {
					return deleteBug(w.MB, t, user, msgs[0].ID)
				}
				var j *core.JTok
				if ghost {
					j = w.G.NewJTok(op)
				}
				removed := w.MB.Delete(t, j, user, msgs[0].ID)
				if ghost {
					w.G.FinishOp(t, j, removed)
				}
				return removed
			})
		}
		unlock(t, w, h, user)
	}

	s := &explore.Scenario{
		Name:        name,
		Spec:        sp,
		MachineOpts: machine.Options{MaxSteps: steps},
		MaxCrashes:  o.MaxCrashes,
		RandPolicy:  func(call, n int) int { return call % n },
		Setup: func(m *machine.Machine) any {
			// Pick the crash model, then compose the stack over it.
			newModel := gfs.NewModel
			switch {
			case o.Writeback:
				newModel = gfs.NewWritebackModel
			case o.BufferedFS:
				newModel = gfs.NewBufferedModel
			}
			w := &World{}
			dirs := Dirs(o.Config)
			var backends [2]gfs.System
			n := o.replicas()
			for i, bdirs := 0, gfs.BackendDirs(dirs, n); i < n; i++ {
				w.FS[i] = newModel(m, bdirs)
				backends[i] = w.FS[i]
			}
			w.Stack = gfs.NewStack(backends[:n], dirs, gfs.StackSpec{Checksum: o.Corrupt, Policy: o.policy()})
			if stackBug != nil {
				stackBug(w.Stack)
			}
			if detectOnly || nospaceOnly {
				w.Acked = map[string]bool{}
			}
			if ghost {
				w.G = core.NewCtx(m)
				w.G.InitSim(sp, sp.Init())
			}
			return w
		},
		Init: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			w.MB = Init(t, w.G, w.Stack.Top, o.Config)
		},
		Main: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			if prefixOnly {
				// Sequential, history-free delivery: the prefix contract
				// is stated over the issue order, which only a single
				// delivering thread defines.
				for _, d := range o.Delivers {
					w.MB.Deliver(t, nil, d.User, []byte(d.Msg))
				}
				return
			}
			for _, d := range o.Delivers {
				op := d
				t.Go(func(c *machine.T) { deliver(c, w, h, op) })
			}
			for _, u := range o.PickupUsers {
				user := u
				t.Go(func(c *machine.T) { pickupDeleteUnlock(c, w, h, user) })
			}
		},
		Recover: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			if mir := w.Stack.Mirror(); mir != nil {
				// The crash models the whole site rebooting: the operator
				// swaps any fail-stopped replica for a replacement before
				// the server restarts. The replacement still holds the
				// replica's pre-death (stale) contents — Recover's
				// resilver is what makes it trustworthy again, and the
				// no-resilver variant is how its absence shows up.
				for i := 0; i < 2; i++ {
					if f := w.Stack.Faulty(i); f.FailStopped() {
						f.Revive()
						mir.ReplaceReplica(i)
					}
				}
			}
			if recoverBug != nil {
				w.MB = recoverBug(t, w.Stack.Top, o.Config)
			} else {
				w.MB = Recover(t, w.G, w.Stack.Top, o.Config, w.MB)
			}
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			if nospaceOnly {
				postNoSpace(t, w, o)
				return
			}
			if detectOnly {
				postDetect(t, w, o)
				return
			}
			if prefixOnly {
				postPrefix(t, w, o)
				return
			}
			if !o.PostPickups {
				return
			}
			for u := uint64(0); u < o.Config.Users; u++ {
				pickup(t, w, h, u)
				unlock(t, w, h, u)
			}
		},
	}

	// Crash-boundary dedup (DESIGN.md §5): the file-system models and
	// the ghost Ctx are fingerprintable devices, so the hook only has to
	// cover the crash-surviving state the world holds outside them — the
	// stack's (policy budget, latches, mirror flags, detection counters)
	// and the set of acked payloads the property scenarios read after
	// the crash. The deferred-durability models are covered too: the
	// synced-prefix map is part of the model's own encoding.
	s.Fingerprint = func(wAny any, b []byte) []byte {
		w := wAny.(*World)
		b = w.Stack.AppendCheckerState(b)
		for _, msg := range w.ackedSorted() {
			b = append(b, msg...)
			b = append(b, 0)
		}
		return b
	}

	if detectOnly || prefixOnly || nospaceOnly {
		s.Invariant = func(m *machine.Machine, wAny any) error {
			w := wAny.(*World)
			if n := w.FS[0].OpenFDs(); n != 0 {
				return fmt.Errorf("resource leak: %d file descriptors still open", n)
			}
			return nil
		}
	}

	if ghost {
		s.Invariant = func(m *machine.Machine, wAny any) error {
			w := wAny.(*World)
			if w.G.CrashPending() {
				return fmt.Errorf("spec crash step still owed")
			}
			// Iron-style resource accounting (§9.5 found an fd leak that
			// Perennial's proofs could not): at era boundaries every
			// descriptor must be closed.
			if n := w.FS[0].OpenFDs(); n != 0 {
				return fmt.Errorf("resource leak: %d file descriptors still open", n)
			}
			// MsgsInv: each mailbox directory matches the source state.
			src := w.G.Source().(State)
			for u := uint64(0); u < o.Config.Users; u++ {
				onDisk := w.FS[0].PeekDir(UserDir(u))
				if len(onDisk) != len(src.Boxes[u]) {
					return fmt.Errorf("MsgsInv: user %d has %d files but source has %d messages",
						u, len(onDisk), len(src.Boxes[u]))
				}
				ids := make([]string, 0, len(onDisk))
				for id := range onDisk {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, id := range ids {
					want, ok := src.Boxes[u][id]
					if !ok {
						return fmt.Errorf("MsgsInv: user %d file %s not in source", u, id)
					}
					if !bytes.Equal(onDisk[id], []byte(want)) {
						return fmt.Errorf("MsgsInv: user %d message %s contents differ", u, id)
					}
				}
			}
			return nil
		}
	}

	if o.Mirror {
		s.Invariant = func(m *machine.Machine, wAny any) error {
			w := wAny.(*World)
			if n0, n1 := w.FS[0].OpenFDs(), w.FS[1].OpenFDs(); n0 != 0 || n1 != 0 {
				return fmt.Errorf("resource leak: %d/%d descriptors open on replicas", n0, n1)
			}
			// While a replica is fail-stopped the mirror legitimately runs
			// degraded; redundancy is only owed once recovery has replaced
			// and resilvered it.
			for i := 0; i < 2; i++ {
				if w.Stack.Faulty(i).FailStopped() {
					return nil
				}
			}
			st := w.Stack.Mirror().Status()
			if st.Degraded || st.Resilvering {
				return fmt.Errorf("availability: mirror still degraded with both replicas live: %+v", st)
			}
			// Both replicas live and repaired: they must be byte-identical
			// (including the generation markers the resilver copies last).
			for _, dir := range gfs.BackendDirs(Dirs(o.Config), 2) {
				d0, d1 := w.FS[0].PeekDir(dir), w.FS[1].PeekDir(dir)
				if len(d0) != len(d1) {
					return fmt.Errorf("replica divergence: dir %s has %d vs %d files", dir, len(d0), len(d1))
				}
				for name, c0 := range d0 {
					c1, ok := d1[name]
					if !ok {
						return fmt.Errorf("replica divergence: %s/%s missing on replica 1", dir, name)
					}
					if !bytes.Equal(c0, c1) {
						return fmt.Errorf("replica divergence: %s/%s contents differ", dir, name)
					}
				}
			}
			return nil
		}
	}
	return s
}

// sweep picks up every mailbox after the final recovery and returns the
// payloads present; a pickup serving bytes that were never delivered
// fails the execution under the property's name.
func sweep(t *machine.T, w *World, o ScenarioOptions, property string) map[string]bool {
	allowed := map[string]bool{}
	for _, d := range o.Delivers {
		allowed[d.Msg] = true
	}
	present := map[string]bool{}
	for u := uint64(0); u < o.Config.Users; u++ {
		msgs := w.MB.Pickup(t, nil, u)
		w.MB.Unlock(t, nil, u)
		for _, msg := range msgs {
			if !allowed[msg.Contents] {
				t.Failf("%s: pickup served bytes never delivered: %q", property, msg.Contents)
			}
			present[msg.Contents] = true
		}
	}
	return present
}

// postDetect is the Post hook for detection-mode scenarios (Corrupt
// without Mirror). With a single backend there is no redundant copy to
// heal from, so the property is weaker than refinement: corruption may
// destroy an acknowledged message, but it must never do so *silently*.
// Concretely, after the final recovery every byte sequence a pickup
// serves must be one the workload actually delivered (the envelope
// layer may fail a rotten read loudly, but must never pass mangled
// payload through), and any acknowledged message that has gone missing
// must be accounted for by the integrity layer's detection counter.
func postDetect(t *machine.T, w *World, o ScenarioOptions) {
	present := sweep(t, w, o, "integrity")
	for _, msg := range w.ackedSorted() {
		if !present[msg] && w.Stack.Detected() == 0 {
			t.Failf("silent loss: acked delivery %q missing with no integrity detection", msg)
		}
	}
}

// postNoSpace is the Post hook for resource-exhaustion scenarios
// (NoSpaceGC): the disk-full contract, audited after the final
// recovery. (1) No acked loss: every acknowledged delivery is still
// readable — ENOSPC may refuse work, but an ack, once given, is owed
// forever. (2) No fabrication: every byte sequence a pickup serves was
// actually delivered. (3) Writability tracks the latch: recovery's
// orphan-spool sweep is the store's garbage collector — each orphan it
// deletes returns space (clearing the latch on gfs.Faulty) — so once
// the latch has cleared a probe delivery must succeed, and while it
// still holds the probe must fail cleanly with nothing published.
func postNoSpace(t *machine.T, w *World, o ScenarioOptions) {
	present := sweep(t, w, o, "nospace")
	for _, msg := range w.ackedSorted() {
		if !present[msg] {
			t.Failf("acked loss: delivery %q acknowledged but missing after disk-full", msg)
		}
	}
	// The probe: latched before the probe means it must fail (nothing
	// published); a failed probe with the latch clear — both before and
	// after, since the chooser may spend a leftover budget on the probe
	// itself — means the store wrongly refused writable space.
	latched := w.Stack.Faulty(0).NoSpace()
	ok := w.MB.Deliver(t, nil, 0, []byte("probe"))
	if latched && ok {
		t.Failf("nospace: store accepted a delivery while the disk-full latch holds")
	}
	if !ok && !latched && !w.Stack.Faulty(0).NoSpace() {
		t.Failf("nospace: store refused a delivery with space free")
	}
	if !ok {
		msgs := w.MB.Pickup(t, nil, 0)
		w.MB.Unlock(t, nil, 0)
		for _, m := range msgs {
			if m.Contents == "probe" {
				t.Failf("nospace: refused probe delivery appeared in the mailbox anyway")
			}
		}
	}
}

// postPrefix is the Post hook for prefix-contract scenarios (Writeback
// with PrefixContract): the honest contract of barrier-free delivery.
// A crash may take back the newest deliveries — even acknowledged ones
// — because nothing was synced, and a surviving directory entry may
// hold a torn (empty) body when the link outlived its un-synced data.
// What the store must never do is reorder or fabricate: the surviving
// messages must be a no-holes prefix of the issue order, where a hole
// below the newest survivor is only acceptable if a torn-empty
// survivor can account for it (its body, not its entry, was lost).
// Messages are sized at one append, so a torn body is exactly empty.
func postPrefix(t *machine.T, w *World, o ScenarioOptions) {
	index := map[string]int{}
	for i, d := range o.Delivers {
		index[d.Msg] = i
	}
	empties := 0
	seen := map[int]bool{}
	maxIdx := -1
	for u := uint64(0); u < o.Config.Users; u++ {
		msgs := w.MB.Pickup(t, nil, u)
		w.MB.Unlock(t, nil, u)
		for _, m := range msgs {
			if m.Contents == "" {
				empties++
				continue
			}
			i, ok := index[m.Contents]
			if !ok {
				t.Failf("prefix contract: pickup served bytes never delivered: %q", m.Contents)
			}
			if seen[i] {
				t.Failf("prefix contract: message %q delivered once but present twice", m.Contents)
			}
			seen[i] = true
			if i > maxIdx {
				maxIdx = i
			}
		}
	}
	holes := 0
	for i := 0; i < maxIdx; i++ {
		if !seen[i] {
			holes++
		}
	}
	if holes > empties {
		t.Failf("prefix contract: %d holes below surviving index %d with only %d torn survivors to account for them",
			holes, maxIdx, empties)
	}
}
