package mailboat

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
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
	// constructor the daemon boots on (DESIGN.md "Storage stack"). Every
	// recovery era boots a fresh Stack over the same models, as the
	// daemon does. The library runs on Stack.Top.
	FS    [2]*gfs.Model
	Stack *gfs.Stack
	MB    *Mailboat
	// spec is the stack part, its policy the execution's fault budget:
	// the one piece of the stack that outlives a reboot.
	spec gfs.StackSpec
	// detected counts the detections of the stacks earlier eras ran on;
	// seen is the detection count at the last OpObserve, which sessions
	// on several threads update: each update declares itself on m as
	// object seenObj (DESIGN.md "Source sets and wakeup trees").
	detected, seen uint64
	m              *machine.Machine
	seenObj        machine.Obj
	// v is the implementation under check (see Client).
	v Variant
}

// boot composes a fresh stack over the world's models, the way the
// daemon boots: gfs.NewStack from the spec, the variant's bug layer
// seeded in. Of the stack it replaces, the policy's spent budget, the
// detection count and a full disk carry over: the models have no
// capacity, so the old fault layer's no-space latch is the disk's
// fullness, and a full disk is still full after the reboot (the fresh
// layer is latched without charging the budget again).
func (w *World) boot(dirs []string) {
	backends := []gfs.System{w.FS[0]}
	if w.FS[1] != nil {
		backends = append(backends, w.FS[1])
	}
	old := w.Stack
	w.Stack = gfs.NewStack(backends, dirs, w.spec)
	if old != nil {
		w.detected += old.Detected()
		for i := range backends {
			if f := old.Faulty(i); f != nil && f.NoSpace() {
				w.Stack.Faulty(i).NoSpaceNow("still full at boot")
			}
		}
	}
	if w.v.Stack != nil {
		w.v.Stack(w.Stack)
	}
}

// detections is the store's detection count across every era so far.
func (w *World) detections() uint64 { return w.detected + w.Stack.Detected() }

// Variant selects the implementation under check: a row of optional
// overrides, each replacing one production entry point (or one stack
// layer) with a seeded bug from bugs.go. A nil field is the production
// code; the zero Variant is the verified implementation, and the only
// one that runs ghost-annotated. Seeding a mutation is adding a row
// (DESIGN.md "Seeded bugs" lists them with their scenarios).
type Variant struct {
	Deliver func(mb *Mailboat, t gfs.T, user uint64, msg []byte) bool
	Pickup  func(mb *Mailboat, t gfs.T, user uint64) []Message
	Delete  func(mb *Mailboat, t gfs.T, user uint64, id string) bool
	Recover func(t gfs.T, sys gfs.System, cfg Config) *Mailboat
	// Stack seeds a bug layer (gfs's bugs.go) into the composed storage
	// stack.
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
	// envelope (gfs.TrustReads forges the envelope layer's verified
	// token) — the silent-corruption bug the detection scenarios catch as
	// garbage served to a pickup. Needs Checksum (there is no envelope to
	// blind without it).
	VariantTrustReads = Variant{Stack: gfs.TrustReads}
	// VariantResilverNoVerify skips the resilver's source integrity
	// check (gfs.ResilverNoVerify forges the source's judged token), so a
	// survivor that rotted on the shelf is copied verbatim over the good
	// replica. Needs Mirror, and only bites with Checksum and a
	// corruption to spend.
	VariantResilverNoVerify = Variant{Stack: gfs.ResilverNoVerify}
	// VariantFlagBeforeBump takes a dead replica out of the mirror before
	// the survivor's generation bump is durable (gfs.FlagBeforeBump
	// forges the bumped token), so a second delivery acks on the
	// survivor alone and a crash before the bump leaves the generations
	// tied: the boot resilver copies the stale replica over the survivor.
	VariantFlagBeforeBump = Variant{Stack: gfs.FlagBeforeBump}
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
	// VariantRecoverDropsTorn deletes the messages a barrier-free crash
	// left empty, turning a torn survivor into a hole below a later
	// one. Only meaningful under Prefix.
	VariantRecoverDropsTorn = Variant{Recover: recoverDropsTorn}
)

// verified reports whether v overrides nothing.
func (v Variant) verified() bool {
	return v.Deliver == nil && v.Pickup == nil && v.Delete == nil && v.Recover == nil && v.Stack == nil
}

// A scenario is a workload (Config, Delivers, PickupUsers, MaxCrashes,
// PostPickups) run over four independent parts: a crash model, a
// storage stack, a fault budget and the property claimed of the result
// (DESIGN.md "Scenario parts" has the table). Which stacks compose over
// which model and budget is gfs.StackSpec.Validate's business; nothing here
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

// Faults is an execution's fault budget: every fault layer of the
// execution — the stack's, and in a replicated scenario both nodes' and
// the network's — shares one fault.Chooser that may inject Budget faults
// of the classes in Ops (fault.Classes; nil = every transient storage
// class) at any eligible decision point, wherever the chooser picks. The
// zero value injects nothing and builds no fault layer. A mirror
// scenario states one fail-stop — the replica death the mirror exists to
// mask — and an integrity scenario one corruption (a bit flip or a
// truncation, enumerated as separate branches, at any open).
type Faults struct {
	Budget int
	Ops    map[fault.Class]bool
}

// Policy builds the budget's policy; nil when it injects nothing. A
// Chooser is per-execution state, so Setup calls this afresh; the class
// set is configuration, and shared.
func (f Faults) Policy() fault.Policy {
	if f.Budget <= 0 {
		return nil
	}
	return &fault.Chooser{Budget: f.Budget, Eligible: f.Ops}
}

// Property is the claim a scenario checks: the spec every recorded
// history must refine. One row per claim; a scenario names exactly one,
// and every row records every operation.
type Property struct {
	Name string
	// spec is the row's specification.
	spec func(Config) spec.Interface
	// observe spans each recorded pickup session with an OpObserve.
	observe bool
	// after runs once the recorded post-pickups have.
	after func(*machine.T, *explore.Harness, *World)
}

var (
	// Refinement (the default): the history must refine Spec — under
	// the ghost annotations when the verified implementation runs
	// somewhere their one-atomic-step linearization holds (see ghost),
	// black-box otherwise.
	Refinement = &Property{Name: "refinement", spec: Spec}
	// Detection is what a single checksummed backend can promise under
	// corruption: with no second copy rot may lose data, but never
	// silently. Each pickup session is spanned by an OpObserve, and the
	// history must refine DetectionSpec. The observation reads one
	// world-wide detection count, so a scenario runs at most one
	// concurrent pickup session (PickupUsers) under it.
	Detection = &Property{Name: "detection", spec: DetectionSpec, observe: true}
	// Exhaustion is the disk-full contract: ENOSPC may refuse work, but
	// never takes back an ack — Spec's transient failure already says
	// so — and writability tracks the latch (probeLatch). The latch
	// lives in the fault layer, so the scenario needs a fault budget
	// (with fault.NoSpace to ever latch).
	Exhaustion = &Property{Name: "exhaustion", spec: Spec, after: probeLatch}
	// Prefix is the buffered contract of barrier-free delivery
	// (mailboatd -no-fsync) on the writeback model, where a crash may
	// take back acked mail: the history must refine PrefixSpec.
	Prefix = &Property{Name: "prefix", spec: PrefixSpec}

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
	// recovery era boots a fresh stack, a fail-stopped replica's disk
	// back in it with whatever stale contents it holds, before the
	// library's Recover resilvers it, and between eras both replicas
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

// ghost reports whether v runs under the ghost annotations. They commit
// the spec step in the same atomic turn as the one link that publishes
// a message, so they fit the verified implementation on a single plain
// backend whose link stays put: a mirrored link is two machine steps, a
// writeback crash can roll the link back, corruption breaks the
// files-match-source relation by design, and the ghost source follows
// Spec alone (core.Ctx.CrashSim takes one crash outcome).
func (o *ScenarioOptions) ghost(v Variant) bool {
	return v.verified() && o.Property == Refinement && !o.Mirror && !o.Checksum && o.Crash != Writeback
}

// check refuses a property the other parts leave nothing to check
// (Scenario has already made a nil Property Refinement); which layers
// compose over which crash model and fault budget is
// gfs.StackSpec.Validate's table.
func (o *ScenarioOptions) check() error {
	switch {
	case o.Property == Prefix && o.Crash != Writeback:
		return errors.New("Prefix needs the Writeback crash model: on any other every delivery is durable when acked, and the prefix property degenerates to refinement")
	case o.Property == Exhaustion && o.Faults.Budget <= 0:
		return errors.New("Exhaustion needs a fault budget (with fault.NoSpace): the disk-full latch lives in the fault layer")
	case o.Property != Refinement && !o.PostPickups:
		return errors.New("a durability contract needs PostPickups: without a recorded read after the last recovery, nothing observes what the crashes kept")
	case o.Property == Detection && len(o.PickupUsers) > 1:
		return errors.New("Detection observes one pickup session at a time: one world-wide detection count cannot tell which session made the detection")
	}
	return o.stackSpec().Validate(o.replicas(), o.Crash != Strict)
}

// stackSpec is the stack part as gfs spells it, with a fresh policy.
func (o *ScenarioOptions) stackSpec() gfs.StackSpec {
	return gfs.StackSpec{Checksum: o.Checksum, Policy: o.Faults.Policy()}
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
	if o.Property == nil {
		o.Property = Refinement
	}
	if err := o.check(); err != nil {
		panic(fmt.Sprintf("mailboat.Scenario refused %s: %v", name, err))
	}
	prop, ghost := o.Property, o.ghost(v)
	sp := prop.spec(o.Config)
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
			w := &World{v: v, spec: o.stackSpec(), m: m, seenObj: m.Objects(1)}
			dirs := Dirs(o.Config)
			n := o.replicas()
			for i, bdirs := 0, gfs.BackendDirs(dirs, n); i < n; i++ {
				w.FS[i] = newModel[o.Crash](m, bdirs)
			}
			w.boot(dirs)
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
			for _, op := range o.Delivers {
				t.Go(func(c *machine.T) { RecordDeliver(c, h, w, op) })
			}
			for _, user := range o.PickupUsers {
				t.Go(func(c *machine.T) { w.session(c, h, prop, user, true) })
			}
		},
		Recover: func(t *machine.T, wAny any) {
			// The crash models the whole site rebooting: the server boots
			// a fresh stack over the same disks, as the daemon does, with
			// a fail-stopped replica replaced by one still holding its
			// pre-death (stale) contents. Recover's resilver is what makes
			// it trustworthy again, and the no-resilver variant is how its
			// absence shows up.
			w := wAny.(*World)
			w.boot(Dirs(o.Config))
			if v.Recover != nil {
				w.MB = v.Recover(t, w.Stack.Top, o.Config)
			} else {
				w.MB = Recover(t, w.G, w.Stack.Top, o.Config, w.MB)
			}
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			if o.PostPickups {
				for u := uint64(0); u < o.Config.Users; u++ {
					w.session(t, h, prop, u, false)
				}
			}
			if prop.after != nil {
				prop.after(t, h, w)
			}
		},
		Fingerprint: fingerprint,
	}
	// Between eras: the ghost relation where there is ghost state, the
	// mirror's where there is a mirror, and the resource audit
	// everywhere else.
	switch {
	case ghost:
		s.Invariant = func(_ *machine.Machine, wAny any) error { return ghostInvariant(wAny.(*World), o.Config.Users) }
	case o.Mirror:
		s.Invariant = func(_ *machine.Machine, wAny any) error { return mirrorInvariant(wAny.(*World), Dirs(o.Config)) }
	default:
		s.Invariant = func(_ *machine.Machine, wAny any) error { return wAny.(*World).leaks() }
	}
	return s
}

// session runs one recorded pickup session, spanned by an OpObserve
// when the property observes detection.
func (w *World) session(t *machine.T, h *explore.Harness, prop *Property, user uint64, deleteFirst bool) {
	if !prop.observe {
		RecordSession(t, h, w, user, deleteFirst)
		return
	}
	h.Op(OpObserve{}, func() spec.Ret {
		RecordSession(t, h, w, user, deleteFirst)
		w.m.Touch(w.seenObj, machine.Write)
		seen := w.seen
		w.seen = w.detections()
		return w.seen != seen
	})
}

// probeLatch is Exhaustion's one hook: writability tracks the disk-full
// latch. The latch outlives a reboot (World.boot), and recovery's
// orphan-spool sweep is the store's garbage collector — each orphan it
// deletes returns space, clearing the latch on gfs.Faulty — so a
// recorded probe delivery by the production code must fail while the
// latch holds, and succeed once it has cleared (before and after,
// since the chooser may spend a leftover budget on the probe itself). One more recorded pickup follows, so that refinement judges
// what the probe left: its message if accepted, nothing if refused.
func probeLatch(t *machine.T, h *explore.Harness, w *World) {
	latched := w.Stack.Faulty(0).NoSpace()
	ok := h.Op(OpDeliver{User: 0, Msg: "probe"}, func() spec.Ret { return w.MB.Deliver(t, nil, 0, []byte("probe")) }).(bool)
	if latched && ok {
		t.Failf("nospace: store accepted a delivery while the disk-full latch holds")
	}
	if !ok && !latched && !w.Stack.Faulty(0).NoSpace() {
		t.Failf("nospace: store refused a delivery with space free")
	}
	RecordSession(t, h, w, 0, false)
}

// fingerprint is the crash-boundary dedup hook (DESIGN.md "Crash-boundary
// dedup"): the file-system models and the ghost Ctx are fingerprintable
// devices, and the recovery era boots a fresh stack, so it only has to
// cover the crash-surviving state the world holds outside them — the
// policy's spent budget, each disk's fullness (the no-space latch boot
// carries over), the detection count, and the count the next OpObserve
// compares it against. The deferred-durability models are covered too:
// the synced-prefix map is part of the model's own encoding.
func fingerprint(wAny any, b []byte) []byte {
	w := wAny.(*World)
	if c, ok := w.spec.Policy.(*fault.Chooser); ok {
		b = c.AppendState(b)
	}
	for i := 0; i < 2; i++ {
		if f := w.Stack.Faulty(i); f != nil {
			b = machine.AppendBool(b, f.NoSpace())
		}
	}
	return machine.AppendUint64(machine.AppendUint64(b, w.detections()), w.seen)
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
		if len(onDisk) != src.Count(u) {
			return fmt.Errorf("MsgsInv: user %d has %d files but source has %d messages",
				u, len(onDisk), src.Count(u))
		}
		ids := make([]string, 0, len(onDisk))
		for id := range onDisk {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			want, ok := src.Lookup(u, id)
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
// claim: nothing leaks, and once recovery has resilvered a dead
// replica's replacement, redundancy is restored and the replicas are
// byte-identical (including the generation markers the resilver copies
// last).
func mirrorInvariant(w *World, dirs []string) error {
	if n0, n1 := w.FS[0].OpenFDs(), w.FS[1].OpenFDs(); n0 != 0 || n1 != 0 {
		return fmt.Errorf("resource leak: %d/%d descriptors open on replicas", n0, n1)
	}
	// While a replica is fail-stopped the mirror legitimately runs
	// degraded; redundancy is only owed once a recovery has resilvered
	// its replacement.
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
