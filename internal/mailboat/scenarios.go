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
	// exhaustion properties (nil under the others).
	Acked map[string]bool
	// v is the implementation under check (see Client).
	v Variant
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
	// recovery (only meaningful with Mirror).
	VariantRecoverNoResilver = Variant{Recover: recoverSkipResilver}
	// VariantTrustReads serves reads without verifying the checksum
	// envelope (gfs.Checksummed.TrustReads) — the silent-corruption bug
	// the detection scenarios catch as garbage served to a pickup. Needs
	// Checksum (there is no envelope to blind without it).
	VariantTrustReads = Variant{Stack: func(s *gfs.Stack) { s.Checksummed(0).TrustReads = true }}
	// VariantResilverNoVerify skips the resilver's source integrity
	// check (gfs.Mirrored.ResilverNoVerify), so a survivor that rotted
	// on the shelf is copied verbatim over the good replica. Needs
	// Mirror, and only bites with Checksum and a corruption to spend.
	VariantResilverNoVerify = Variant{Stack: func(s *gfs.Stack) { s.Mirror().ResilverNoVerify = true }}
	// VariantReplaySpool delivers with one-byte appends and recovers by
	// replaying non-empty spool files into the mailbox — a design that
	// wrongly assumes a crashed spool file is either empty or complete.
	// Only a TORN crash tail (a partial prefix of the unsynced appends)
	// exposes it; whole-tail loss leaves nothing to replay. Only
	// meaningful on the Buffered model.
	VariantReplaySpool = Variant{Deliver: (*Mailboat).deliverTinyAppends, Recover: recoverReplaySpool}
	// VariantAckBeforeSync delivers with the full spool-sync-link
	// protocol but acknowledges as soon as the link lands, skipping the
	// directory barrier — so on a writeback store an acked message's
	// directory entry may still be sitting in the cache and be lost at
	// a crash. Only meaningful on the Writeback model.
	VariantAckBeforeSync = Variant{Deliver: (*Mailboat).deliverAckBeforeSync}
	// VariantRecoverTrustsCache acknowledges deletes straight from the
	// directory cache (no barrier after the unlink): a crash may
	// resurrect the entry, and recovery — trusting whatever directory
	// entries survived — serves the message the user already deleted.
	// Only meaningful on the Writeback model.
	VariantRecoverTrustsCache = Variant{Delete: (*Mailboat).deleteNoBarrier}
	// VariantDeliverAckOnNoSpace acknowledges a delivery the full disk
	// refused (nothing published) — acked-but-absent. Only meaningful
	// under Exhaustion.
	VariantDeliverAckOnNoSpace = Variant{Deliver: (*Mailboat).deliverAckOnNoSpace}
	// VariantDeliverGreedySpoolGC sweeps the whole spool directory when
	// a delivery hits a full disk, eating concurrent deliveries' live
	// spooled-but-unlinked files. Only meaningful under Exhaustion.
	VariantDeliverGreedySpoolGC = Variant{Deliver: (*Mailboat).deliverGreedySpoolGC}
)

// verified reports whether v overrides nothing.
func (v Variant) verified() bool {
	return v.Deliver == nil && v.Pickup == nil && v.Delete == nil && v.Recover == nil && v.Stack == nil
}

// A scenario is a workload (Config, Delivers, PickupUsers, MaxCrashes,
// PostPickups) run over four independent parts: a crash model, a
// storage stack, a fault budget and the property claimed of the result
// (DESIGN.md §4m has the table). Which stacks compose over which model
// and budget is gfs.StackSpec.Validate's business; nothing here
// overrides a part with another.

// CrashModel is what a crash does to un-synced state: the gfs model the
// backends are built from.
type CrashModel int

const (
	// Strict is the paper's setting (gfs.NewModel): every operation is
	// durable when it returns.
	Strict CrashModel = iota
	// Buffered defers file data (gfs.NewBufferedModel, the §6.2
	// extension): a crash loses or tears un-synced appends, so crash
	// safety needs Config.SyncOnDeliver.
	Buffered
	// Writeback additionally keeps directory operations in a volatile
	// cache until SyncDir (gfs.NewWritebackModel): at a crash each
	// directory keeps an enumerated prefix of its un-synced operations
	// (chooser tag "writeback"), so crash safety needs SyncOnDeliver
	// and Config.SyncDirs.
	Writeback
)

// newModel is the backend constructor of each crash model.
var newModel = [...]func(*machine.Machine, []string) *gfs.Model{
	Strict: gfs.NewModel, Buffered: gfs.NewBufferedModel, Writeback: gfs.NewWritebackModel,
}

// Faults is an execution's fault budget: the stack's fault layers share
// one chooser-driven policy that may inject Budget faults of the
// classes in Ops (gfs.Classes; nil = every transient class) at any
// eligible operation, on whichever replica the chooser picks. The zero
// value injects nothing and builds no fault layer. A mirror scenario
// states one fail-stop — the replica death the mirror exists to mask —
// and an integrity scenario one corruption (a bit flip or a truncation,
// enumerated as separate branches, at any open).
type Faults struct {
	Budget int
	Ops    map[gfs.FaultOp]bool
}

// policy builds the budget's policy; nil when it injects nothing. A
// ChooserPolicy is per-execution state, so Setup calls this afresh; the
// class set is configuration, and shared.
func (f Faults) policy() gfs.Policy {
	if f.Budget <= 0 {
		return nil
	}
	return &gfs.ChooserPolicy{Budget: f.Budget, Eligible: f.Ops}
}

// Property is the claim a scenario checks: how its deliveries are
// recorded and what is asserted after the final recovery. One row per
// claim; a scenario names exactly one.
type Property struct {
	Name string
	// acked takes deliveries out of the history: they run unrecorded and
	// the payloads the store acknowledged collect in World.Acked, the
	// ground truth post audits.
	acked bool
	// sequential runs the deliveries one after another on the main
	// thread, unrecorded, and nothing else: the issue order is the
	// ground truth.
	sequential bool
	// post audits the store after the final recovery, in place of the
	// recorded post-pickups.
	post func(*machine.T, *World, *ScenarioOptions)
}

var (
	// Refinement (the default): every operation is recorded and the
	// history must refine Spec — under the ghost annotations when the
	// verified implementation runs somewhere their one-atomic-step
	// linearization holds (see ghost), black-box otherwise.
	Refinement = &Property{Name: "refinement"}
	// Detection is what a single checksummed backend can promise under
	// corruption: with no second copy rot may lose data, but never
	// silently (postDetect).
	Detection = &Property{Name: "detection", acked: true, post: postDetect}
	// Exhaustion is the disk-full contract: ENOSPC may refuse work, but
	// never takes back an ack, and writability tracks the latch
	// (postNoSpace). The latch lives in the fault layer, so the scenario
	// needs a fault budget (with gfs.FaultNoSpace to ever latch).
	Exhaustion = &Property{Name: "exhaustion", acked: true, post: postNoSpace}
	// Prefix is the honest contract of barrier-free delivery (mailboatd
	// -no-fsync) on the writeback model, where it cannot refine the spec
	// — a crash may take back acked mail: what survives must be a
	// no-holes prefix of the delivery order (postPrefix). The
	// durable-vs-buffered distinction of "The Path to Durable
	// Linearizability", checked as a property.
	Prefix = &Property{Name: "prefix", sequential: true, post: postPrefix}

	// Properties lists the rows.
	Properties = []*Property{Refinement, Detection, Exhaustion, Prefix}
)

// ScenarioOptions is a workload and the four parts it runs over.
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

	// Crash is the crash model.
	Crash CrashModel
	// Mirror and Checksum are the stack (gfs.NewStack): a gfs.Mirrored
	// pair of backends, and a checksum envelope over each backend. A
	// crash of a mirrored store is the whole site rebooting: the
	// recovery era revives and replaces a fail-stopped replica before
	// the library's Recover resilvers it, and between eras both replicas
	// must be live, repaired and byte-identical.
	Mirror   bool
	Checksum bool
	// Faults is the fault budget.
	Faults Faults
	// Property is the claim; nil means Refinement.
	Property *Property
}

// replicas is the number of backend models the scenario runs on.
func (o *ScenarioOptions) replicas() int {
	if o.Mirror {
		return 2
	}
	return 1
}

// property is the row the scenario checks.
func (o *ScenarioOptions) property() *Property {
	if o.Property == nil {
		return Refinement
	}
	return o.Property
}

// ghost reports whether v runs under the ghost annotations. They commit
// the spec step in the same atomic turn as the one link that publishes
// a message, so they fit the verified implementation on a single plain
// backend whose link stays put: a mirrored link is two machine steps, a
// writeback crash can roll the link back, corruption breaks the
// files-match-source relation by design, and a property scenario claims
// something other than refinement.
func (o *ScenarioOptions) ghost(v Variant) bool {
	return v.verified() && o.property() == Refinement && !o.Mirror && !o.Checksum && o.Crash != Writeback
}

// check refuses a property whose ground truth the other parts cannot
// supply; which layers compose over which crash model and fault budget
// is gfs.StackSpec.Validate's table.
func (o *ScenarioOptions) check() error {
	switch {
	case o.Property == Prefix && o.Crash != Writeback:
		return errors.New("Prefix needs the Writeback crash model: on any other every delivery is durable when acked, and the prefix property degenerates to refinement")
	case o.Property == Exhaustion && o.Faults.Budget <= 0:
		return errors.New("Exhaustion needs a fault budget (with gfs.FaultNoSpace): the disk-full latch lives in the fault layer")
	}
	return o.stackSpec().Validate(o.replicas(), o.Crash != Strict)
}

// stackSpec is the stack part as gfs spells it, with a fresh policy.
func (o *ScenarioOptions) stackSpec() gfs.StackSpec {
	return gfs.StackSpec{Checksum: o.Checksum, Policy: o.Faults.policy()}
}

// Client is a mail store as the workload sees it: the library on one
// stack (World) or a replicated pair of them (repl). answered is false
// when the client got no response at all — the operation stays pending
// in the history, free to have taken effect or not.
type Client interface {
	Deliver(t *machine.T, op OpDeliver) (delivered, answered bool)
	Pickup(t *machine.T, op OpPickup) (msgs []Message, answered bool)
	Delete(t *machine.T, op OpDelete) (removed, answered bool)
	Unlock(t *machine.T, op OpUnlock)
}

// RecordDeliver runs one delivery, recorded in the history.
func RecordDeliver(t *machine.T, h *explore.Harness, c Client, op OpDeliver) {
	h.OpMaybe(op, func() (spec.Ret, bool) {
		delivered, answered := c.Deliver(t, op)
		return delivered, answered
	})
}

// RecordSession runs one recorded client session: Pickup(user), Delete
// of the first message listed (when deleteFirst and there is one), then
// Unlock(user). An unanswered pickup ends it: there is no session to
// continue.
func RecordSession(t *machine.T, h *explore.Harness, c Client, user uint64, deleteFirst bool) {
	pickup := OpPickup{User: user}
	ret, served := h.OpMaybe(pickup, func() (spec.Ret, bool) {
		msgs, answered := c.Pickup(t, pickup)
		return msgs, answered
	})
	if !served {
		return
	}
	if msgs := ret.([]Message); deleteFirst && len(msgs) > 0 {
		del := OpDelete{User: user, ID: msgs[0].ID}
		h.OpMaybe(del, func() (spec.Ret, bool) {
			removed, answered := c.Delete(t, del)
			return removed, answered
		})
	}
	unlock := OpUnlock{User: user}
	h.Op(unlock, func() spec.Ret {
		c.Unlock(t, unlock)
		return nil
	})
}

// Deliver, Pickup, Delete and Unlock make World a Client: each runs the
// variant's override if the row has one, else the production entry
// point under a fresh ghost token — the nil token in a ghost-free world.
// The library always answers.
func (w *World) Deliver(t *machine.T, op OpDeliver) (bool, bool) {
	if bug := w.v.Deliver; bug != nil {
		return bug(w.MB, t, op.User, []byte(op.Msg)), true
	}
	j := w.G.NewJTok(op)
	delivered := w.MB.Deliver(t, j, op.User, []byte(op.Msg))
	w.G.FinishOp(t, j, delivered)
	return delivered, true
}

func (w *World) Pickup(t *machine.T, op OpPickup) ([]Message, bool) {
	if bug := w.v.Pickup; bug != nil {
		return bug(w.MB, t, op.User), true
	}
	j := w.G.NewJTok(op)
	msgs := w.MB.Pickup(t, j, op.User)
	w.G.FinishOp(t, j, msgs)
	return msgs, true
}

func (w *World) Delete(t *machine.T, op OpDelete) (bool, bool) {
	if bug := w.v.Delete; bug != nil {
		return bug(w.MB, t, op.User, op.ID), true
	}
	j := w.G.NewJTok(op)
	removed := w.MB.Delete(t, j, op.User, op.ID)
	w.G.FinishOp(t, j, removed)
	return removed, true
}

func (w *World) Unlock(t *machine.T, op OpUnlock) {
	j := w.G.NewJTok(op)
	w.MB.Unlock(t, j, op.User)
	w.G.FinishOp(t, j, nil)
}

// Scenario builds the checkable scenario for the chosen variant.
func Scenario(name string, v Variant, o ScenarioOptions) *explore.Scenario {
	if err := o.check(); err != nil {
		panic(fmt.Sprintf("mailboat.Scenario refused %s: %v", name, err))
	}
	prop, ghost := o.property(), o.ghost(v)
	sp := Spec(o.Config)
	steps := 3000
	if o.Mirror {
		// Every operation runs twice (once per replica) and each
		// recovery resilvers the whole store.
		steps = 9000
	}
	if o.Checksum {
		// Envelope verification re-reads whole files on every open, and
		// recovery adds a scrub pass over the store.
		steps *= 2
	}

	s := &explore.Scenario{
		Name:        name,
		Spec:        sp,
		MachineOpts: machine.Options{MaxSteps: steps},
		MaxCrashes:  o.MaxCrashes,
		RandPolicy:  func(call, n int) int { return call % n },
		Setup: func(m *machine.Machine) any {
			w := &World{v: v}
			dirs := Dirs(o.Config)
			var backends [2]gfs.System
			n := o.replicas()
			for i, bdirs := 0, gfs.BackendDirs(dirs, n); i < n; i++ {
				w.FS[i] = newModel[o.Crash](m, bdirs)
				backends[i] = w.FS[i]
			}
			w.Stack = gfs.NewStack(backends[:n], dirs, o.stackSpec())
			if v.Stack != nil {
				v.Stack(w.Stack)
			}
			if prop.acked {
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
			if prop.sequential {
				for _, d := range o.Delivers {
					w.Deliver(t, d)
				}
				return
			}
			for _, d := range o.Delivers {
				op := d
				t.Go(func(c *machine.T) {
					if !prop.acked {
						RecordDeliver(c, h, w, op)
					} else if delivered, _ := w.Deliver(c, op); delivered {
						w.Acked[op.Msg] = true
					}
				})
			}
			for _, u := range o.PickupUsers {
				user := u
				t.Go(func(c *machine.T) { RecordSession(c, h, w, user, true) })
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
			if v.Recover != nil {
				w.MB = v.Recover(t, w.Stack.Top, o.Config)
			} else {
				w.MB = Recover(t, w.G, w.Stack.Top, o.Config, w.MB)
			}
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			if prop.post != nil {
				prop.post(t, w, &o)
				return
			}
			if !o.PostPickups {
				return
			}
			for u := uint64(0); u < o.Config.Users; u++ {
				RecordSession(t, h, w, u, false)
			}
		},
		Fingerprint: fingerprint,
	}
	// Between eras: the ghost relation where there is ghost state, the
	// mirror's where there is a mirror, and under a property the
	// resource audit its post hook leaves to the invariant.
	switch {
	case ghost:
		s.Invariant = func(_ *machine.Machine, wAny any) error { return ghostInvariant(wAny.(*World), o.Config.Users) }
	case o.Mirror:
		s.Invariant = func(_ *machine.Machine, wAny any) error { return mirrorInvariant(wAny.(*World), Dirs(o.Config)) }
	case prop.post != nil:
		s.Invariant = func(_ *machine.Machine, wAny any) error { return wAny.(*World).leaks() }
	}
	return s
}

// fingerprint is the crash-boundary dedup hook (DESIGN.md §5): the
// file-system models and the ghost Ctx are fingerprintable devices, so
// it only has to cover the crash-surviving state the world holds
// outside them — the stack's (policy budget, latches, mirror flags,
// detection counters) and the set of acked payloads the property
// scenarios read after the crash. The deferred-durability models are
// covered too: the synced-prefix map is part of the model's own
// encoding.
func fingerprint(wAny any, b []byte) []byte {
	w := wAny.(*World)
	b = w.Stack.AppendCheckerState(b)
	for _, msg := range w.ackedSorted() {
		b = append(b, msg...)
		b = append(b, 0)
	}
	return b
}

// leaks is Iron-style resource accounting (§9.5 found an fd leak that
// Perennial's proofs could not): at era boundaries every descriptor
// must be closed.
func (w *World) leaks() error {
	if n := w.FS[0].OpenFDs(); n != 0 {
		return fmt.Errorf("resource leak: %d file descriptors still open", n)
	}
	return nil
}

// ghostInvariant holds between the eras of a ghost-annotated run: no
// spec crash step is owed, nothing leaks, and each mailbox directory
// matches the source state (MsgsInv).
func ghostInvariant(w *World, users uint64) error {
	if w.G.CrashPending() {
		return fmt.Errorf("spec crash step still owed")
	}
	if err := w.leaks(); err != nil {
		return err
	}
	src := w.G.Source().(State)
	for u := uint64(0); u < users; u++ {
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

// mirrorInvariant is the mirrored store's between-era availability
// claim: nothing leaks, and once recovery has replaced and resilvered a
// dead replica, redundancy is restored and the replicas are
// byte-identical (including the generation markers the resilver copies
// last).
func mirrorInvariant(w *World, dirs []string) error {
	if n0, n1 := w.FS[0].OpenFDs(), w.FS[1].OpenFDs(); n0 != 0 || n1 != 0 {
		return fmt.Errorf("resource leak: %d/%d descriptors open on replicas", n0, n1)
	}
	// While a replica is fail-stopped the mirror legitimately runs
	// degraded; redundancy is only owed once recovery has replaced and
	// resilvered it.
	for i := 0; i < 2; i++ {
		if w.Stack.Faulty(i).FailStopped() {
			return nil
		}
	}
	st := w.Stack.Mirror().Status()
	if st.Degraded || st.Resilvering {
		return fmt.Errorf("availability: mirror still degraded with both replicas live: %+v", st)
	}
	return ReplicasIdentical(w.FS[0], w.FS[1], gfs.BackendDirs(dirs, 2))
}

// ReplicasIdentical is the byte-identity invariant two settled copies
// of a store owe each other — a mirror's replicas, a replicated pair's
// nodes: the same files with the same contents in every listed
// directory.
func ReplicasIdentical(a, b *gfs.Model, dirs []string) error {
	for _, dir := range dirs {
		da, db := a.PeekDir(dir), b.PeekDir(dir)
		if len(da) != len(db) {
			return fmt.Errorf("replica divergence: dir %s has %d vs %d files", dir, len(da), len(db))
		}
		for name, ca := range da {
			cb, ok := db[name]
			if !ok {
				return fmt.Errorf("replica divergence: %s/%s missing on replica 1", dir, name)
			}
			if !bytes.Equal(ca, cb) {
				return fmt.Errorf("replica divergence: %s/%s contents differ", dir, name)
			}
		}
	}
	return nil
}

// pickupAll picks up every mailbox after the final recovery and returns
// the payloads present; a pickup serving bytes that were never delivered
// fails the execution under the property's name.
func pickupAll(t *machine.T, w *World, o *ScenarioOptions, property string) map[string]bool {
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

// postDetect is Detection's audit. With a single backend there is no redundant copy to
// heal from, so the property is weaker than refinement: corruption may
// destroy an acknowledged message, but it must never do so *silently*.
// Concretely, after the final recovery every byte sequence a pickup
// serves must be one the workload actually delivered (the envelope
// layer may fail a rotten read loudly, but must never pass mangled
// payload through), and any acknowledged message that has gone missing
// must be accounted for by the integrity layer's detection counter.
func postDetect(t *machine.T, w *World, o *ScenarioOptions) {
	present := pickupAll(t, w, o, "integrity")
	for _, msg := range w.ackedSorted() {
		if !present[msg] && w.Stack.Detected() == 0 {
			t.Failf("silent loss: acked delivery %q missing with no integrity detection", msg)
		}
	}
}

// postNoSpace is Exhaustion's audit: the disk-full contract after the
// final recovery. (1) No acked loss: every acknowledged delivery is still
// readable — ENOSPC may refuse work, but an ack, once given, is owed
// forever. (2) No fabrication: every byte sequence a pickup serves was
// actually delivered. (3) Writability tracks the latch: recovery's
// orphan-spool sweep is the store's garbage collector — each orphan it
// deletes returns space (clearing the latch on gfs.Faulty) — so once
// the latch has cleared a probe delivery must succeed, and while it
// still holds the probe must fail cleanly with nothing published.
func postNoSpace(t *machine.T, w *World, o *ScenarioOptions) {
	present := pickupAll(t, w, o, "nospace")
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

// postPrefix is Prefix's audit: the honest contract of barrier-free
// delivery.
// A crash may take back the newest deliveries — even acknowledged ones
// — because nothing was synced, and a surviving directory entry may
// hold a torn (empty) body when the link outlived its un-synced data.
// What the store must never do is reorder or fabricate: the surviving
// messages must be a no-holes prefix of the issue order, where a hole
// below the newest survivor is only acceptable if a torn-empty
// survivor can account for it (its body, not its entry, was lost).
// Messages are sized at one append, so a torn body is exactly empty.
func postPrefix(t *machine.T, w *World, o *ScenarioOptions) {
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
