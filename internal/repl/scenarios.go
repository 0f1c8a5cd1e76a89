package repl

import (
	"fmt"

	"repro/internal/explore"
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
// node's store is its own gfs.NewStack over its own model, the two
// sharing one fault policy, so a fail-stop budget spans both nodes.
type ScenarioWorld struct {
	FS     [2]*gfs.Model
	Stacks [2]*gfs.Stack
	Net    *netmodel.Net
	NetPol *netmodel.ChooserPolicy
	Pair   *Pair
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
	// StoreFaultBudget, when positive, lets the chooser permanently
	// fail-stop EITHER node's store at any of its operations, with this
	// many fail-stops per execution shared between the two nodes.
	StoreFaultBudget int
	// NetFaultBudget, when positive, lets the chooser inject network
	// faults (tag "net") with this shared budget per execution.
	NetFaultBudget int
	// NetFaults restricts which fault classes the chooser may inject
	// (nil = all of drop, duplicate, reorder, drop-reply, partition).
	NetFaults []netmodel.Fault
	// Mut enables the seeded replication-protocol mutations.
	Mut Mutations
}

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
			w := &ScenarioWorld{}
			// Without a budget the fault layers still stand: their
			// latches are how the Pair learns a node is dead.
			storePol := gfs.Policy(gfs.NeverPolicy{})
			if o.StoreFaultBudget > 0 {
				storePol = &gfs.ChooserPolicy{Budget: o.StoreFaultBudget, Eligible: gfs.Classes(gfs.FaultFailStop)}
			}
			dirs := ReplDirs(o.Config)
			for i := range w.Stacks {
				w.FS[i] = gfs.NewModel(m, dirs)
				w.Stacks[i] = gfs.NewStack([]gfs.System{w.FS[i]}, dirs, gfs.StackSpec{Policy: storePol})
			}
			netPol := netmodel.Policy(netmodel.NeverPolicy{})
			if o.NetFaultBudget > 0 {
				w.NetPol = &netmodel.ChooserPolicy{Budget: o.NetFaultBudget, Eligible: netmodel.Classes(o.NetFaults...)}
				netPol = w.NetPol
			}
			w.Net = netmodel.New(m, netPol)
			return w
		},
		Init: func(t *machine.T, wAny any) {
			w := wAny.(*ScenarioWorld)
			w.Pair = NewPair(t, [2]gfs.System{w.Stacks[0].Top, w.Stacks[1].Top},
				[2]*gfs.Faulty{w.Stacks[0].Faulty(0), w.Stacks[1].Faulty(0)}, w.Net,
				o.Config, Config{Mut: o.Mut})
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
			// reboot (fail-stopped stores come back under operator care),
			// epochs are re-read from disk, the higher-epoch node — the one
			// that fenced the other — leads, and a catch-up resync runs
			// unconditionally because lastApplied is volatile. Frames still
			// in the network from before the crash survive it; the closing
			// pings give the chooser the chance to land them AFTER the
			// post-resync fence is up.
			wAny.(*ScenarioWorld).Pair.Recover(t)
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
		// Crash-boundary dedup: the models and the Net are fingerprintable
		// devices (the Net's encoding covers partition charge and the
		// crash-surviving in-flight stash), so the hook covers the
		// crash-surviving world state outside them — each node's stack
		// (the store policy's spent budget, the fail-stop latch) and the
		// network policy's spent budget. The Pair's own fields (role,
		// session locks, staleness) are all recomputed by Recover from
		// device state, so they are not boundary state.
		Fingerprint: func(wAny any, b []byte) []byte {
			w := wAny.(*ScenarioWorld)
			for _, st := range w.Stacks {
				b = st.AppendCheckerState(b)
			}
			if w.NetPol != nil {
				b = w.NetPol.AppendState(b)
			}
			return b
		},
	}
}
