package repl

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/mailboat"
	"repro/internal/netmodel"
)

// This file builds the replicated refinement scenarios: either node's
// store may fail-stop and the network may drop, duplicate, reorder or
// partition — and the Pair must still refine the UNCHANGED atomic
// mailboat spec. The single-node spec is the point: replication is an
// availability mechanism, not a semantic one, so the client-visible
// contract must not move when a second node appears.
//
// The scenarios run ghost-free (black-box refinement through the Pair):
// the ghost machinery commits a spec step atomically with one store
// operation, and a replicated operation spans two stores and a network
// round trip. Refinement rests on the recorded history, plus a
// between-era invariant: when both nodes are live and in the same
// epoch, their user directories must be byte-identical.

// ScenarioWorld carries the replicated composition across eras: each
// node's store is its own gfs.NewStack over its own model, and the two
// stacks and the Net share one fault policy, so one budget spans both
// nodes' stores and the network between them. Every recovery era boots
// fresh stacks over the same models and policy, as a rebooted node does.
type ScenarioWorld struct {
	FS     [2]*gfs.Model
	Stacks [2]*gfs.Stack
	Net    *netmodel.Net
	Pair   *Pair

	policy fault.Policy
	dirs   []string
}

// boot composes each node's stack over its model and returns the tops
// the Pair runs on; each node finds its fault layer's latches beneath its
// top itself. A node's full disk stays full
// across the reboot: the models have no capacity, so the old fault
// layer's no-space latch is carried onto the fresh one (without charging
// the budget again).
func (w *ScenarioWorld) boot() (sys [2]gfs.System) {
	for i := range w.Stacks {
		old := w.Stacks[i]
		w.Stacks[i] = gfs.NewStack([]gfs.System{w.FS[i]}, w.dirs, gfs.StackSpec{Policy: w.policy})
		sys[i] = w.Stacks[i].Top
		if old != nil && old.Faulty(0).NoSpace() {
			w.Stacks[i].Faulty(0).NoSpaceNow("still full at boot")
		}
	}
	return sys
}

// Crash, Save and AppendDurable make a ScenarioWorld the machine.Device
// of what survives a crash outside the models, the Net and the policy,
// which are devices of their own (DESIGN.md "Crash-boundary dedup"):
// each node's disk-full latch, which boot carries over. The Pair's own
// fields (role, session locks, staleness) are all recomputed by Recover
// from device state. A crash changes none of it; the reboot is boot's,
// in the recovery era.
func (w *ScenarioWorld) Crash() {}

func (w *ScenarioWorld) Save() (restore func()) { return func() {} }

func (w *ScenarioWorld) AppendDurable(b []byte) []byte {
	for _, s := range w.Stacks {
		b = machine.AppendBool(b, s.Faulty(0).NoSpace())
	}
	return b
}

// Deliver, Pickup, Delete and Unlock make ScenarioWorld the workload's
// mailboat.Client: every operation goes through the Pair, which may have
// no answer to give.
func (w *ScenarioWorld) Deliver(t *machine.T, op mailboat.OpDeliver) (delivered, answered bool) {
	return w.Pair.Deliver(t, op.User, []byte(op.Msg))
}

func (w *ScenarioWorld) Pickup(t *machine.T, op mailboat.OpPickup) ([]mailboat.Message, bool) {
	return w.Pair.Pickup(t, op.User)
}

func (w *ScenarioWorld) Delete(t *machine.T, op mailboat.OpDelete) (removed, answered bool) {
	return w.Pair.Delete(t, op.User, op.ID)
}

func (w *ScenarioWorld) Unlock(t *machine.T, op mailboat.OpUnlock) { w.Pair.Unlock(t, op.User) }

// ScenarioOptions shapes the replicated workload.
type ScenarioOptions struct {
	// Config sizes each node's store (RandBound should stay small).
	Config mailboat.Config
	// Delivers spawns one delivery thread per entry.
	Delivers []mailboat.OpDeliver
	// PickupUsers spawns, per entry, a thread doing Pickup(u), Delete of
	// the first message if any, then Unlock(u) — all through the Pair.
	PickupUsers []uint64
	// MaxCrashes bounds injected whole-site crashes (both nodes reboot;
	// in-flight network frames survive).
	MaxCrashes int
	// PostPickups runs one more such session per user at the end.
	PostPickups bool
	// Faults is the fault budget, the part the mail-store scenarios
	// take: one policy over both nodes' stores and the network, so
	// fault.FailStop kills EITHER node's store at any of its operations
	// and the network classes (tag "net") strike any call, all under one
	// budget per execution.
	Faults mailboat.Faults
	// Variant is the protocol under check; the zero row is production's.
	Variant Variant
}

// Variant selects the replication protocol under check, as
// mailboat.Variant does the library: a row of overrides, each replacing
// one production piece with a seeded bug from bugs.go. A nil field is
// the production code. The Pair holds the row — it is the checker's
// harness; the daemon drives Node directly and never sees one.
type Variant struct {
	// DeliverNamed replaces Node.DeliverNamed; fence is the row's fence
	// stage, for the catch-ups the delivery may run.
	DeliverNamed func(nd *Node, t gfs.T, user uint64, name string, msg []byte, fence fenceStage) OpResult
	// Fence replaces the fence stage of every catch-up resync the pair's
	// nodes run (Promote keeps production's).
	Fence fenceStage
}

var (
	// VariantAckBeforeBackup acks a delivery after the LOCAL publish,
	// without waiting for the backup — the replication layer's analogue
	// of acking before fsync. A failover then serves a mailbox missing an
	// acknowledged message.
	VariantAckBeforeBackup = Variant{DeliverNamed: (*Node).deliverAckBeforeBackup}
	// VariantResyncSkipsEpoch runs catch-up resync without bumping the
	// epoch, so in-flight frames from before the resync are not fenced
	// out: a reordered replicate frame can land after the catch-up and
	// resurrect a deleted message on the backup.
	VariantResyncSkipsEpoch = Variant{Fence: skipFence}
)

// Scenario builds the replicated checkable scenario.
func Scenario(name string, o ScenarioOptions) *explore.Scenario {
	return &explore.Scenario{
		Name: name,
		Spec: mailboat.Spec(o.Config),
		// A replicated op is a network round trip plus two store applies,
		// and every recovery resync walks both stores message by message.
		MachineOpts: machine.Options{MaxSteps: 60000},
		MaxCrashes:  o.MaxCrashes,
		RandPolicy:  func(call, n int) int { return call % n },
		Setup: func(m *machine.Machine) any {
			// Without a budget the fault layers still stand: their
			// latches are how the Pair learns a node is dead.
			w := &ScenarioWorld{policy: o.Faults.Policy(), dirs: ReplDirs(o.Config)}
			if w.policy == nil {
				w.policy = fault.Never{}
			}
			for i := range w.FS {
				w.FS[i] = gfs.NewModel(m, w.dirs)
			}
			w.Net = netmodel.New(m, w.policy)
			if c, ok := w.policy.(*fault.Chooser); ok {
				m.RegisterDevice(c)
			}
			m.RegisterDevice(w)
			return w
		},
		Init: func(t *machine.T, wAny any) {
			w := wAny.(*ScenarioWorld)
			w.Pair = NewPair(t, w.boot(), w.Net, o.Config, o.Variant)
		},
		Main: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*ScenarioWorld)
			for _, d := range o.Delivers {
				op := d
				t.Go(func(c *machine.T) { mailboat.RecordDeliver(c, h, w, op) })
			}
			for _, u := range o.PickupUsers {
				user := u
				t.Go(func(c *machine.T) { mailboat.RecordSession(c, h, w, user, true) })
			}
		},
		Recover: func(t *machine.T, wAny any) {
			// The crash models the whole site losing power: both nodes
			// reboot onto fresh stacks (a fail-stopped store comes back
			// replaced, its stale contents intact), epochs are re-read
			// from disk, the higher-epoch node — the one that fenced the
			// other — leads, and a catch-up resync runs unconditionally
			// because lastApplied is volatile. Frames still in the network
			// from before the crash survive it; the closing pings give the
			// chooser the chance to land them AFTER the post-resync fence
			// is up.
			w := wAny.(*ScenarioWorld)
			w.Pair.Recover(t, w.boot())
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			if !o.PostPickups {
				return
			}
			for u := uint64(0); u < o.Config.Users; u++ {
				mailboat.RecordSession(t, h, wAny.(*ScenarioWorld), u, true)
			}
		},
		Invariant: func(m *machine.Machine, wAny any) error {
			w := wAny.(*ScenarioWorld)
			if n0, n1 := w.FS[0].OpenFDs(), w.FS[1].OpenFDs(); n0 != 0 || n1 != 0 {
				return fmt.Errorf("resource leak: %d/%d descriptors open on nodes", n0, n1)
			}
			// While a node is dead the pair legitimately runs on one store;
			// while epochs differ or a catch-up is incomplete the backup is
			// legitimately behind. Equality is only owed when both nodes
			// are live, settled, and in the same epoch (Degraded covers all
			// three), and it is owed on the mailboxes: spool and epoch
			// files are each node's own.
			if w.Pair == nil || w.Pair.Degraded() {
				return nil
			}
			boxes := make([]string, o.Config.Users)
			for u := range boxes {
				boxes[u] = mailboat.UserDir(uint64(u))
			}
			return mailboat.ReplicasIdentical(w.FS[0], w.FS[1], boxes)
		},
	}
}
