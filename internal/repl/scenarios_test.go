package repl

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/mailboat"
)

// The fault budgets the scenario tests spend per execution: one
// fail-stop of either node's store, one network fault of any class, one
// reordered frame.
var (
	oneFailStop = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.FailStop)}
	oneNetFault = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.Drop, fault.Dup, fault.Reorder, fault.DropReply, fault.Partition)}
	oneReorder  = mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.Reorder)}
)

// smallConfig is the workload-sized store for scenario tests.
func smallConfig() mailboat.Config {
	return mailboat.Config{Users: 1, RandBound: 4, SyncOnDeliver: true, SyncDirs: true}
}

// TestReplicatedFaultFree: the replicated pair refines the unchanged
// atomic spec with no faults at all — the plumbing baseline.
func TestReplicatedFaultFree(t *testing.T) {
	s := Scenario("mb-repl-faultfree", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

// TestReplicatedNetFaults: every network fault class enumerable, one
// fault per execution, no crashes — the acked history must still refine
// the spec and settled stores must be byte-identical.
func TestReplicatedNetFaults(t *testing.T) {
	max := 100000
	if testing.Short() {
		max = 20000
	}
	s := Scenario("mb-repl-netfaults", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      oneNetFault,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: max})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

// TestReplicatedCrashAndNet: a whole-site crash may interleave with a
// reordered/duplicated/dropped frame or partition burst; recovery
// re-elects by epoch and resyncs. Refinement and the byte-identical
// invariant must hold throughout.
func TestReplicatedCrashAndNet(t *testing.T) {
	max := 100000
	if testing.Short() {
		max = 20000
	}
	s := Scenario("mb-repl-crash-net", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		MaxCrashes:  1,
		Faults:      oneNetFault,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: max})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

// TestReplicatedFailStop: either node's store may fail-stop at any
// operation (one death per execution); failover must keep every acked
// operation visible.
func TestReplicatedFailStop(t *testing.T) {
	max := 100000
	if testing.Short() {
		max = 20000
	}
	s := Scenario("mb-repl-failstop", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      oneFailStop,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: max})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

// TestConvictAckBeforeBackup: the mutation that acks after the local
// publish alone must be convicted — a fail-stop of the primary after
// the ack and a failover to the never-told backup loses acked mail,
// which the history check sees as a refinement failure.
func TestConvictAckBeforeBackup(t *testing.T) {
	s := Scenario("mb-repl-bug-ack-before-backup", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      oneFailStop,
		Variant:     VariantAckBeforeBackup,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 400000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("mutation not convicted")
	}
	// The counterexample must replay and minimize to a replayable core.
	if cx := explore.ReplayCx(s, rep.Counterexample.Choices); cx == nil {
		t.Fatal("counterexample does not replay")
	}
	min := explore.Minimize(s, rep.Counterexample.Choices)
	if cx := explore.ReplayCx(s, min); cx == nil {
		t.Fatal("minimized counterexample does not replay")
	}
	t.Logf("counterexample: %d choices, minimized to %d", len(rep.Counterexample.Choices), len(min))
}

// TestConvictResyncSkipsEpoch: the mutation that resyncs without
// bumping the epoch must be convicted — a reordered replicate frame
// held across a site crash lands after the catch-up, walks straight
// through the un-bumped epoch gate, and consumes a sequence number in
// the new run's space, so a later client operation is swallowed by the
// backup's duplicate detection (or the replayed frame resurrects
// deleted state outright). Either way the stores diverge and the
// byte-identical invariant reports it. No main-era pickup thread: the
// post-era session is enough to expose it and keeps the search small.
func TestConvictResyncSkipsEpoch(t *testing.T) {
	s := Scenario("mb-repl-bug-resync-skips-epoch", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PostPickups: true,
		MaxCrashes:  1,
		Faults:      oneReorder,
		Variant:     VariantResyncSkipsEpoch,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 400000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("mutation not convicted")
	}
	if !strings.Contains(rep.Counterexample.Reason, "divergence") &&
		!strings.Contains(rep.Counterexample.Reason, "refinement") {
		t.Fatalf("unexpected conviction reason: %s", rep.Counterexample.Reason)
	}
	if cx := explore.ReplayCx(s, rep.Counterexample.Choices); cx == nil {
		t.Fatal("counterexample does not replay")
	}
	min := explore.Minimize(s, rep.Counterexample.Choices)
	if cx := explore.ReplayCx(s, min); cx == nil {
		t.Fatal("minimized counterexample does not replay")
	}
	t.Logf("counterexample: %d choices, minimized to %d", len(rep.Counterexample.Choices), len(min))
}

// TestReplicatedSelfCheckDedup runs the dedup soundness self-check on
// the replicated crash scenario: the fingerprint covers both stores
// (devices), the network's surviving in-flight frames (device) and the
// shared fault policy's budget, and the check requires dedup to
// activate and agree with the dedup-less search.
func TestReplicatedSelfCheckDedup(t *testing.T) {
	s := Scenario("mb-repl-selfcheck", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		MaxCrashes:  1,
		Faults:      mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.Reorder, fault.DropReply)},
	})
	opts := explore.Options{MaxExecutions: 20000}
	if testing.Short() {
		opts.MaxExecutions = 2000
	}
	with, without, err := explore.SelfCheck(s, opts)
	if err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	t.Logf("without dedup: %s", without)
	t.Logf("with dedup:    %s (%d boundaries, %d pruned)",
		with, with.Stats.DistinctBoundaries, with.Stats.PrunedStates)
	if !with.Stats.DedupActive {
		t.Fatal("dedup did not activate on the replicated scenario")
	}
}

// TestSearchLeavesNoGoroutines: the replicated scenarios kill threads
// that hold locks released by defer (the pair's per-user and role
// locks). A killed thread must unwind without re-entering the scheduler
// — when it did, it parked forever, and a 20k-execution run of the
// crash+net scenario left 15,637 goroutines behind for every later GC
// to scan. After a verified run and after a conviction (search, replay,
// minimize), the goroutine count is back where it started.
func TestSearchLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	settled := func() int {
		// A search worker or carrier that has signalled completion may
		// still be on its way out, and under -race that can take longer
		// than any fixed number of yields: poll until the count is back or
		// five seconds have passed. A leak stays, so it still fails.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}

	// The suite's mb/replicated+crash+net, at a small budget.
	rep := explore.Run(Scenario("mb-repl-crash-net-leak", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		MaxCrashes:  1,
		Faults:      oneNetFault,
	}), explore.Options{MaxExecutions: 1500})
	if !rep.OK() || rep.CrashedExecutions == 0 {
		t.Fatalf("report: %s", rep)
	}
	if n := settled(); n > before {
		t.Fatalf("verified run of %d executions (%d crashed) left %d goroutines, started with %d",
			rep.Executions, rep.CrashedExecutions, n, before)
	}

	// The suite's mb/repl-bug:resync-skips-epoch.
	bug := Scenario("mb-repl-bug-resync-skips-epoch-leak", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PostPickups: true,
		MaxCrashes:  1,
		Faults:      oneReorder,
		Variant:     VariantResyncSkipsEpoch,
	})
	rep = explore.Run(bug, explore.Options{MaxExecutions: 400000})
	if rep.OK() {
		t.Fatal("mutation not convicted")
	}
	if cx := explore.ReplayCx(bug, explore.Minimize(bug, rep.Counterexample.Choices)); cx == nil {
		t.Fatal("minimized counterexample does not replay")
	}
	if n := settled(); n > before {
		t.Fatalf("conviction after %d executions left %d goroutines, started with %d", rep.Executions, n, before)
	}
}

// killer says yes to every fail-stop decision and 0 to the rest.
type killer struct{}

func (killer) Choose(n int, tag string) int {
	if tag == "failstop" {
		return 1
	}
	return 0
}

// TestScenarioNodesRunOnStacks: each node's store is a gfs.NewStack —
// a fault layer over the node's own model, what the single-node
// scenarios and the daemon build — the two sharing one policy, and the
// Pair runs on those tops with those layers as its kill switches. The
// policy's spent budget is the fingerprint's whole share of the world: a
// reboot's fresh stacks drop the latch and keep the budget spent.
func TestScenarioNodesRunOnStacks(t *testing.T) {
	s := Scenario("stacks", ScenarioOptions{Config: smallConfig(), Faults: oneFailStop})
	m := machine.New(machine.Options{})
	w := s.Setup(m).(*ScenarioWorld)
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) { s.Init(mt, w) })
	for i, st := range w.Stacks {
		f := st.Faulty(0)
		if f == nil || st.Top != gfs.System(f) || f.Inner() != gfs.System(w.FS[i]) {
			t.Fatalf("node %d: stack is not Faulty → its model: top %T, fault layer %v", i, st.Top, f)
		}
		if st.Mirror() != nil || st.Checksummed(0) != nil {
			t.Errorf("node %d: stack has layers the spec did not ask for", i)
		}
		if w.Pair.F[i] != f {
			t.Errorf("node %d: the Pair's kill switch is not its stack's fault layer", i)
		}
	}
	quiet := s.Fingerprint(w, nil)
	res := m.RunEra(killer{}, false, func(mt *machine.T) {
		w.Stacks[0].Top.List(mt, mailboat.SpoolDir)
		w.Stacks[1].Top.List(mt, mailboat.SpoolDir)
	})
	if res.Outcome != machine.Done || !w.Stacks[0].Faulty(0).FailStopped() {
		t.Fatalf("the chooser did not kill node 0: %+v", res)
	}
	if w.Stacks[1].Faulty(0).FailStopped() {
		t.Error("node 1 died after node 0's fail-stop: the nodes do not share one budget")
	}
	spent := s.Fingerprint(w, nil)
	if string(spent) == string(quiet) {
		t.Error("the fingerprint does not see the spent budget")
	}
	w.boot()
	if w.Stacks[0].Faulty(0).FailStopped() {
		t.Error("the rebooted stack kept the fail-stop latch")
	}
	if string(s.Fingerprint(w, nil)) != string(spent) {
		t.Error("the reboot changed the fingerprint: the budget must stay spent")
	}
}

// TestReplicatedComposedFaultAxes: one budget of two faults, spendable
// on a fail-stop of either node's store and on a reordered frame — a
// store fault and a network fault in one execution, which separate
// store and network policies could not state. The pair must still
// refine the unchanged spec, and the search must really reach
// executions that spend the budget on both axes.
func TestReplicatedComposedFaultAxes(t *testing.T) {
	s := Scenario("mb-repl-composed", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      mailboat.Faults{Budget: 2, Ops: fault.Classes(fault.FailStop, fault.Reorder)},
	})
	composed := 0
	post := s.Post
	s.Post = func(t *machine.T, wAny any, h *explore.Harness) {
		post(t, wAny, h)
		w := wAny.(*ScenarioWorld)
		_, net := w.Net.Counters()
		if net[fault.Reorder] > 0 && (w.Stacks[0].Faulty(0).FailStopped() || w.Stacks[1].Faulty(0).FailStopped()) {
			composed++
		}
	}
	max := 20000
	if testing.Short() {
		max = 3000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: max, Workers: 1})
	t.Logf("report: %s; %d executions spent the budget on both axes", rep, composed)
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if composed == 0 {
		t.Fatal("no execution injected both a store fault and a network fault")
	}
}
