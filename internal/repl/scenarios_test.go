package repl

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/mailboat"
	"repro/internal/netmodel"
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
		Config:         smallConfig(),
		Delivers:       []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers:    []uint64{0},
		PostPickups:    true,
		NetFaultBudget: 1,
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
		Config:         smallConfig(),
		Delivers:       []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers:    []uint64{0},
		PostPickups:    true,
		MaxCrashes:     1,
		NetFaultBudget: 1,
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
		Config:           smallConfig(),
		Delivers:         []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers:      []uint64{0},
		PostPickups:      true,
		StoreFaultBudget: 1,
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
		Config:           smallConfig(),
		Delivers:         []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers:      []uint64{0},
		PostPickups:      true,
		StoreFaultBudget: 1,
		Mut:              Mutations{AckBeforeBackup: true},
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
		Config:         smallConfig(),
		Delivers:       []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PostPickups:    true,
		MaxCrashes:     1,
		NetFaultBudget: 1,
		NetFaults:      []netmodel.Fault{netmodel.FaultReorder},
		Mut:            Mutations{ResyncSkipsEpoch: true},
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
// (devices), the network's surviving in-flight frames (device), the
// fault policies' budgets and the fail-stop latches, and the check
// requires dedup to activate and agree with the dedup-less search.
func TestReplicatedSelfCheckDedup(t *testing.T) {
	s := Scenario("mb-repl-selfcheck", ScenarioOptions{
		Config:         smallConfig(),
		Delivers:       []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers:    []uint64{0},
		PostPickups:    true,
		MaxCrashes:     1,
		NetFaultBudget: 1,
		NetFaults:      []netmodel.Fault{netmodel.FaultReorder, netmodel.FaultDropReply},
	})
	opts := explore.Options{MaxExecutions: 20000}
	if testing.Short() {
		opts.MaxExecutions = 2000
	}
	with, without, err := explore.SelfCheckDedup(s, opts)
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
		// A search worker that has signalled completion may still be on
		// its way out; give it the moment it needs.
		n := runtime.NumGoroutine()
		for i := 0; i < 1000 && n > before; i++ {
			runtime.Gosched()
			n = runtime.NumGoroutine()
		}
		return n
	}

	// The suite's mb/replicated+crash+net, at a small budget.
	rep := explore.Run(Scenario("mb-repl-crash-net-leak", ScenarioOptions{
		Config:         smallConfig(),
		Delivers:       []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers:    []uint64{0},
		PostPickups:    true,
		MaxCrashes:     1,
		NetFaultBudget: 1,
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
		Config:         smallConfig(),
		Delivers:       []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PostPickups:    true,
		MaxCrashes:     1,
		NetFaultBudget: 1,
		NetFaults:      []netmodel.Fault{netmodel.FaultReorder},
		Mut:            Mutations{ResyncSkipsEpoch: true},
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
// Pair runs on those tops with those layers as its kill switches.
func TestScenarioNodesRunOnStacks(t *testing.T) {
	s := Scenario("stacks", ScenarioOptions{Config: smallConfig(), StoreFaultBudget: 1})
	m := machine.New(machine.Options{})
	w := s.Setup(m).(*ScenarioWorld)
	for i, st := range w.Stacks {
		f := st.Faulty(0)
		if f == nil || st.Top != gfs.System(f) || f.Inner() != gfs.System(w.FS[i]) {
			t.Fatalf("node %d: stack is not Faulty → its model: top %T, fault layer %v", i, st.Top, f)
		}
		if st.Mirror() != nil || st.Checksummed(0) != nil {
			t.Errorf("node %d: stack has layers the spec did not ask for", i)
		}
	}
	quiet := w.Stacks[1].AppendCheckerState(nil)
	res := m.RunEra(killer{}, false, func(mt *machine.T) {
		w.Stacks[0].Top.List(mt, mailboat.SpoolDir)
	})
	if res.Outcome != machine.Done || !w.Stacks[0].Faulty(0).FailStopped() {
		t.Fatalf("the chooser did not kill node 0: %+v", res)
	}
	if spent := w.Stacks[1].AppendCheckerState(nil); string(spent) == string(quiet) {
		t.Error("node 0's fail-stop did not spend node 1's budget: the nodes do not share one policy")
	}
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) { s.Init(mt, w) })
	for i, st := range w.Stacks {
		if w.Pair.F[i] != st.Faulty(0) {
			t.Errorf("node %d: the Pair's kill switch is not its stack's fault layer", i)
		}
	}
}
