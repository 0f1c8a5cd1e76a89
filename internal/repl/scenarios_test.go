package repl

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/gfs"
	"repro/internal/history"
	"repro/internal/machine"
	"repro/internal/mailboat"
	"repro/internal/obs"
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

// runComplete searches s at one worker within max executions and fails
// the test on a violation, or when the search stops at its budget
// unless -short lowered it.
func runComplete(t *testing.T, s *explore.Scenario, max, short int) *explore.Report {
	t.Helper()
	budget := max
	if testing.Short() {
		budget = short
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete && budget == max {
		t.Fatalf("search stopped at its budget after %d executions", rep.Executions)
	}
	return rep
}

// TestReplicatedFaultFree: the replicated pair refines the unchanged
// atomic spec with no faults at all — the plumbing baseline. Two
// deliveries and a session complete in 23,427 executions.
func TestReplicatedFaultFree(t *testing.T) {
	runComplete(t, Scenario("mb-repl-faultfree", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
	}), 40000, 5000)
}

// TestReplicatedNetFaults: every network fault class enumerable, one
// fault per execution, no crashes — the acked history must still refine
// the spec and settled stores must be byte-identical. Complete in 519
// executions.
func TestReplicatedNetFaults(t *testing.T) {
	runComplete(t, Scenario("mb-repl-netfaults", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      oneNetFault,
	}), 20000, 20000)
}

// TestReplicatedCrashAndNet: a whole-site crash may interleave with a
// reordered/duplicated/dropped frame or partition burst; recovery
// re-elects by epoch and resyncs. Refinement and the byte-identical
// invariant must hold throughout. The suite's mb/replicated+crash+net,
// complete in 13,661 executions.
func TestReplicatedCrashAndNet(t *testing.T) {
	runComplete(t, Scenario("mb-repl-crash-net", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		MaxCrashes:  1,
		Faults:      oneNetFault,
	}), 20000, 5000)
}

// TestReplicatedFailStop: either node's store may fail-stop at any
// operation (one death per execution); failover must keep every acked
// operation visible. The suite's mb/replicated+failstop, complete in
// 1,355 executions.
func TestReplicatedFailStop(t *testing.T) {
	runComplete(t, Scenario("mb-repl-failstop", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      oneFailStop,
	}), 20000, 5000)
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

// TestReplicatedSelfCheckDedup runs the reductions' self-check on a
// replicated crash scenario: the fingerprint covers both stores
// (devices), the network's surviving in-flight frames (device) and the
// shared fault policy's budget. Both searches complete, so they must
// reach equal sets of outcomes, and dedup must activate. The delivery is
// the only main-era thread: with a second one, the plain search runs
// past 300,000 executions even with no fault at all (the reduced one
// checks 68). TestReplicatedSelfCheckSleepSets covers two threads.
func TestReplicatedSelfCheckDedup(t *testing.T) {
	s := Scenario("mb-repl-selfcheck", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PostPickups: true,
		MaxCrashes:  1,
		Faults:      mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.Reorder, fault.DropReply)},
	})
	with, without, err := explore.SelfCheck(s, explore.Options{MaxExecutions: 20000})
	if err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	t.Logf("without the reductions: %s", without)
	t.Logf("with them:              %s (%d boundaries, %d pruned)",
		with, with.Stats.DistinctBoundaries, with.Stats.PrunedStates)
	if !with.Complete || !without.Complete {
		t.Fatal("a search stopped at its budget: no outcome sets to compare")
	}
	if with.Stats.DistinctBoundaries == 0 {
		t.Fatal("dedup claimed no crash boundary on the replicated scenario")
	}
}

// TestReplicatedSelfCheckWakeupTrees runs the self-check where wakeup
// trees and sleep sets act on the replicated stack: a delivery races a
// pickup session while either store may fail-stop, so a failover writes
// the pair's primary under the other client's reads. The reduced search
// completes, in 1,303 executions; the plain one cannot
// (past 300,000 executions), so its first 10,000 executions and 10,000
// random ones must reach no outcome the reduced search misses.
func TestReplicatedSelfCheckWakeupTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("the plain side runs 20,000 executions")
	}
	s := Scenario("mb-repl-selfcheck-sleep", ScenarioOptions{
		Config:      mailboat.Config{Users: 1, RandBound: 1, SyncOnDeliver: true, SyncDirs: true},
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		Faults:      mailboat.Faults{Budget: 1, Ops: fault.Classes(fault.FailStop)},
	})
	opts := explore.Options{MaxExecutions: 10000, StressExecutions: 10000, StressSeed: 1}
	with, without, err := explore.SelfCheck(s, opts)
	if err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	t.Logf("without the reductions: %s", without)
	t.Logf("with them:              %s (%d slept, %d blocked)", with, with.Stats.Slept, with.Stats.SleepBlocked)
	if !with.Complete || with.Executions != 1303 {
		t.Fatalf("the reduced search ran %d executions, complete=%v; want 1,303 and complete", with.Executions, with.Complete)
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
// scenarios build and, under Observed, the daemon's replica — the two
// sharing one policy, and each node runs on its top and reads that
// layer's latch as its own store's death. The policy is a registered
// device, so its used budget, one count whatever class spent it, is in
// the devices' durable encoding: a reboot's fresh stacks drop the latch
// and keep the budget spent.
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
		if w.Pair.Nodes[i].store != gfs.FailStopper(f) {
			t.Errorf("node %d: the node's own latch is not its stack's fault layer", i)
		}
	}
	quiet := m.AppendDurable(nil)
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
	spent := m.AppendDurable(nil)
	if string(spent) == string(quiet) {
		t.Error("the devices' encoding does not see the spent budget")
	}
	w.boot()
	if w.Stacks[0].Faulty(0).FailStopped() {
		t.Error("the rebooted stack kept the fail-stop latch")
	}
	if string(m.AppendDurable(nil)) != string(spent) {
		t.Error("the reboot changed the devices' encoding: the budget must stay spent")
	}
}

// composedFaults is one budget of two faults, spendable on a fail-stop
// of either node's store and on a reordered frame.
var composedFaults = mailboat.Faults{Budget: 2, Ops: fault.Classes(fault.FailStop, fault.Reorder)}

// TestReplicatedComposedFaultAxes: one budget of two faults, spendable
// on a fail-stop of either node's store and on a reordered frame — a
// store fault and a network fault in one execution, which separate
// store and network policies could not state. The pair must still
// refine the unchanged spec, the search must complete — 32,594
// executions, about 2 s — and it must really reach executions that
// spend the budget on both axes.
func TestReplicatedComposedFaultAxes(t *testing.T) {
	s := Scenario("mb-repl-composed", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      composedFaults,
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
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	t.Logf("report: %s; %d executions spent the budget on both axes", rep, composed)
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Fatalf("the search stopped at its budget: %s", rep)
	}
	if composed == 0 {
		t.Fatal("no execution injected both a store fault and a network fault")
	}
}

// TestFencedAfterUnknownGetsNoAnswer replays the violation the complete
// composed search found at execution 175,825. Delivery "a"'s first
// replicate frame is reordered, so its outcome is unknown, and lands on
// the backup at the retry; the primary's store then fail-stops, the
// backup promotes, and the retry is fenced by its epoch. The delivery
// used to report a definite failure, and the pair retried it under a
// fresh name on the new primary, which then held "a" twice. Now the
// fenced retry reports OpUnknown and the delivery gets no answer.
func TestFencedAfterUnknownGetsNoAnswer(t *testing.T) {
	s := Scenario("mb-repl-fenced-after-unknown", ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      composedFaults,
	})
	script := append(make([]int, 18), 1, 0, 1)
	script = append(append(script, make([]int, 19)...), 1, 1, 1, 1, 1, 1)
	invoked, answered := 0, 0
	post := s.Post
	s.Post = func(mt *machine.T, wAny any, h *explore.Harness) {
		post(mt, wAny, h)
		for _, e := range h.History() {
			if _, ok := e.Op.(mailboat.OpDeliver); ok {
				if e.Kind == history.Invoke {
					invoked++
				} else {
					answered++
				}
			}
		}
	}
	if cx := explore.ReplayCx(s, script); cx != nil {
		t.Fatalf("the replay fails:\n%s", cx.Format())
	}
	if invoked != 1 || answered != 0 {
		t.Fatalf("the delivery was invoked %d times and answered %d; want once, and no answer", invoked, answered)
	}
}

// TestAbandonedAfterUnknownCounts: a replication given up after an
// unknown outcome is the at-least-once hazard repl_indeterminate_total
// counts, and reports OpUnknown; one given up with every outcome
// definite is a plain failure, not counted there.
func TestAbandonedAfterUnknownCounts(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	nd := &Node{cfg: Config{Metrics: met}}
	if res := nd.abandoned(false); res != OpFailed || met.Indeterminate.Value() != 0 {
		t.Fatalf("definite: %v, %d indeterminate", res, met.Indeterminate.Value())
	}
	if res := nd.abandoned(true); res != OpUnknown || met.Indeterminate.Value() != 1 {
		t.Fatalf("after an unknown outcome: %v, %d indeterminate", res, met.Indeterminate.Value())
	}
}

// withTicks wraps s so that its main era runs ticks supervisor ticks on a
// thread of their own beside the workload's, each on the pair's current
// primary and with the row's fence — what the daemon's primary runs once
// per ping period. The primary starts stale, as an ack-alone leaves it
// for the day its backup rejoins, so the first tick runs the catch-up
// while the delivery and the pickup session run.
func withTicks(s *explore.Scenario, ticks int) *explore.Scenario {
	init, main := s.Init, s.Main
	s.Init = func(t *machine.T, wAny any) {
		init(t, wAny)
		w := wAny.(*ScenarioWorld)
		w.Pair.Nodes[w.Pair.leader()].setStale(true)
	}
	s.Main = func(t *machine.T, wAny any, h *explore.Harness) {
		main(t, wAny, h)
		p := wAny.(*ScenarioWorld).Pair
		t.Go(func(c *machine.T) {
			for i := 0; i < ticks; i++ {
				p.Nodes[p.leader()].tick(c, p.v.Fence)
			}
		})
	}
	return s
}

// tickedOptions is the workload beside the ticks: one delivery and one
// pickup session, then a post-era session.
func tickedOptions(faults mailboat.Faults, v Variant) ScenarioOptions {
	return ScenarioOptions{
		Config:      smallConfig(),
		Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
		PickupUsers: []uint64{0},
		PostPickups: true,
		Faults:      faults,
		Variant:     v,
	}
}

// TestSupervisorTickBesideClients checks the daemon's supervisor where
// the daemon runs it: one tick, a catch-up in a fresh epoch, concurrent
// with a delivery and a pickup session, which must still refine the
// unchanged spec and leave the settled stores byte-identical.
//
// Fault-free, the search is complete in 75,239 executions (236,743 with
// two ticks). With one fail-stop of either store it is not: this test
// stops at 20,000 executions. That search convicted production at
// execution 8,295 before stream checked the store after reading a box:
// the primary's store died while the tick's catch-up read a message, the
// failed read looked like the end of an empty file, the put replaced the
// backup's copy with nothing, and the promoted backup served it.
func TestSupervisorTickBesideClients(t *testing.T) {
	runComplete(t, withTicks(Scenario("mb-repl-tick", tickedOptions(mailboat.Faults{}, Variant{})), 1), 100000, 5000)
	rep := explore.Run(withTicks(Scenario("mb-repl-tick-failstop", tickedOptions(oneFailStop, Variant{})), 1), explore.Options{MaxExecutions: 20000})
	t.Logf("report: %s", rep)
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

// TestTickedResyncSkipsEpochNotConvicted pins what the same wrapper makes
// of VariantResyncSkipsEpoch: it is NOT convicted. Fault-free the search
// is complete in 75,239 executions and clean, as it is with one reordered
// frame within 3,000,000 executions (about 100 s, not run here). The bug
// needs a frame from before a catch-up to land after it, and a reordered
// frame is dropped after three declined redeliveries (netmodel's
// maxHolds), which the tick's ping and the catch-up's begin, put and
// commit calls use up; only a site crash, which makes no calls, carries
// one past a catch-up — mb/repl-bug:resync-skips-epoch, which
// TestConvictResyncSkipsEpoch convicts.
func TestTickedResyncSkipsEpochNotConvicted(t *testing.T) {
	runComplete(t, withTicks(Scenario("mb-repl-tick-bug-resync-skips-epoch", tickedOptions(mailboat.Faults{}, VariantResyncSkipsEpoch)), 1), 100000, 5000)
}
