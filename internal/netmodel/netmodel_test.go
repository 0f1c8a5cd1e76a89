package netmodel

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/gfs"
	"repro/internal/machine"
)

// funcPolicy injects exactly where the test function says.
type funcPolicy func(c fault.Class, index uint64) bool

func (p funcPolicy) Decide(_ fault.T, c fault.Class, i uint64) bool { return p(c, i) }

// netChooser picks c for "net" choices and 0 (deterministic scheduling)
// for everything else.
func netChooser(c int) machine.Chooser {
	return machine.ChooserFunc(func(n int, tag string) int {
		if tag == "net" && c < n {
			return c
		}
		return 0
	})
}

// echoRig binds node 1 to an echoing handler that records every request
// it sees, and returns the recorder.
func echoRig(n *Net) *[][]byte {
	var got [][]byte
	n.Bind(1, func(t gfs.T, req []byte) []byte {
		got = append(got, append([]byte(nil), req...))
		return append([]byte("ack:"), req...)
	})
	return &got
}

func TestPerfectLinkDelivers(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, fault.Never{})
	got := echoRig(n)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		resp, oc := n.Call(mt, 1, []byte("hello"))
		if oc != Delivered || string(resp) != "ack:hello" {
			mt.Failf("got %q %v", resp, oc)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	if len(*got) != 1 || string((*got)[0]) != "hello" {
		t.Fatalf("handler saw %q", *got)
	}
	calls, faults := n.Counters()
	if faults != [fault.NumClasses]uint64{} {
		t.Fatalf("faults injected under fault.Never: %v", faults)
	}
	// One call consults every network class once, and no other class.
	for c := range fault.NumClasses {
		want := uint64(0)
		if c.Axis() == fault.Network {
			want = 1
		}
		if calls[c] != want {
			t.Fatalf("class %s counted %d decision points, want %d", c, calls[c], want)
		}
	}
}

func TestDropIsLostAndHandlerNeverRuns(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, fault.Always{Ops: fault.Classes(fault.Drop)})
	got := echoRig(n)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if _, oc := n.Call(mt, 1, []byte("x")); oc != Lost {
			mt.Failf("want Lost, got %v", oc)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	if len(*got) != 0 {
		t.Fatalf("dropped request reached the handler: %q", *got)
	}
}

func TestDropReplyIsUnknownAfterHandlerRan(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, fault.Always{Ops: fault.Classes(fault.DropReply)})
	got := echoRig(n)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if resp, oc := n.Call(mt, 1, []byte("x")); oc != Unknown || resp != nil {
			mt.Failf("want Unknown/nil, got %v %q", oc, resp)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	if len(*got) != 1 {
		t.Fatalf("handler ran %d times, want 1 (request was delivered)", len(*got))
	}
}

func TestDupRunsHandlerTwice(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, fault.Always{Ops: fault.Classes(fault.Dup)})
	got := echoRig(n)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if resp, oc := n.Call(mt, 1, []byte("x")); oc != Delivered || string(resp) != "ack:x" {
			mt.Failf("want first response, got %v %q", oc, resp)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	if len(*got) != 2 {
		t.Fatalf("handler ran %d times, want 2", len(*got))
	}
}

func TestReorderStashAndLateDelivery(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, funcPolicy(func(c fault.Class, i uint64) bool {
		return c == fault.Reorder && i == 0
	}))
	got := echoRig(n)
	// Chooser picks deliver-now at every flush opportunity.
	res := mm.RunEra(netChooser(1), false, func(mt *machine.T) {
		if _, oc := n.Call(mt, 1, []byte("stale")); oc != Unknown {
			mt.Failf("reordered call: want Unknown, got %v", oc)
		}
		if len(*got) != 0 {
			mt.Failf("stale frame delivered immediately")
		}
		if resp, oc := n.Call(mt, 1, []byte("fresh")); oc != Delivered || string(resp) != "ack:fresh" {
			mt.Failf("second call: %v %q", oc, resp)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	// The stale frame arrived late — just before the fresh one.
	if len(*got) != 2 || string((*got)[0]) != "stale" || string((*got)[1]) != "fresh" {
		t.Fatalf("handler saw %q, want stale then fresh", *got)
	}
}

func TestReorderDroppedAfterMaxHolds(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, funcPolicy(func(c fault.Class, i uint64) bool {
		return c == fault.Reorder && i == 0
	}))
	got := echoRig(n)
	// Chooser declines every flush opportunity: after maxHolds the
	// stale frame is gone for good.
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		n.Call(mt, 1, []byte("stale"))
		for i := 0; i < maxHolds+2; i++ {
			if _, oc := n.Call(mt, 1, []byte(fmt.Sprintf("m%d", i))); oc != Delivered {
				mt.Failf("call %d: %v", i, oc)
			}
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	for _, req := range *got {
		if string(req) == "stale" {
			t.Fatalf("stale frame delivered after its hold budget expired")
		}
	}
	if len(n.stash[1]) != 0 {
		t.Fatalf("stash still holds %d frames", len(n.stash[1]))
	}
}

func TestPartitionBurstCutsBothDirections(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, funcPolicy(func(c fault.Class, i uint64) bool {
		return c == fault.Partition && i == 0
	}))
	echoRig(n)
	n.Bind(0, func(t gfs.T, req []byte) []byte { return []byte("pong") })
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if _, oc := n.Call(mt, 1, []byte("a")); oc != Lost {
			mt.Failf("first burst casualty: %v", oc)
		}
		if !n.Partitioned() {
			mt.Failf("link not partitioned after injection")
		}
		// The burst eats the reverse direction too.
		if _, oc := n.Call(mt, 0, []byte("b")); oc != Lost {
			mt.Failf("reverse call during burst: %v", oc)
		}
		if n.Partitioned() {
			mt.Failf("burst of 2 should be spent")
		}
		if _, oc := n.Call(mt, 1, []byte("c")); oc != Delivered {
			mt.Failf("healed link: %v", oc)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	if _, faults := n.Counters(); faults[fault.Partition] != 1 {
		t.Fatalf("partition injected %d times, want 1", faults[fault.Partition])
	}
}

// TestCrashHealsPartitionKeepsInFlight pins the asynchronous-network
// crash semantics: a site reboot re-establishes connectivity (the
// partition burst's remaining charge is gone) but does NOT retract
// reordered frames — they live in the network and can land after both
// ends rebooted, the hazard epoch fencing exists for.
func TestCrashHealsPartitionKeepsInFlight(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, funcPolicy(func(c fault.Class, i uint64) bool {
		switch c {
		case fault.Reorder:
			return i == 0
		case fault.Partition:
			return i == 1 // second call starts a burst
		}
		return false
	}))
	got := echoRig(n)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		n.Call(mt, 1, []byte("stale")) // stashed
		n.Call(mt, 1, []byte("cut"))   // starts the burst
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	if !n.Partitioned() || len(n.stash[1]) != 1 {
		t.Fatalf("pre-crash in-flight state missing: charge=%d stash=%d", n.charge, len(n.stash[1]))
	}
	// Reboot: the link comes back; the stale frame stays in flight.
	mm.CrashReset()
	if n.Partitioned() {
		t.Fatalf("crash did not heal the partition: charge=%d", n.charge)
	}
	if len(n.stash[1]) != 1 {
		t.Fatalf("crash retracted an in-flight frame: stash=%d", len(n.stash[1]))
	}
	res = mm.RunEra(netChooser(1), false, func(mt *machine.T) {
		if _, oc := n.Call(mt, 1, []byte("post")); oc != Delivered {
			mt.Failf("post-crash call: %v", oc)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era 2: %+v", res)
	}
	stale := false
	for _, req := range *got {
		if string(req) == "stale" {
			stale = true
		}
	}
	if !stale {
		t.Fatalf("in-flight frame was not deliverable after the reboot: got %q", *got)
	}
}

func TestChooserPolicyBudget(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 100000})
	pol := &fault.Chooser{Budget: 2, Eligible: fault.Classes(fault.Drop, fault.Dup, fault.Reorder, fault.DropReply, fault.Partition)}
	n := New(mm, pol)
	echoRig(n)
	res := mm.RunEra(netChooser(1), false, func(mt *machine.T) {
		for i := 0; i < 20; i++ {
			n.Call(mt, 1, []byte("m"))
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	_, faults := n.Counters()
	var total uint64
	for _, c := range faults {
		total += c
	}
	if total != 2 {
		t.Fatalf("injected %d faults with budget 2: %v", total, faults)
	}
}

func TestFingerprintCoversInFlightState(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, funcPolicy(func(c fault.Class, i uint64) bool {
		return c == fault.Reorder && i == 0
	}))
	echoRig(n)
	quiet := n.AppendDurable(nil)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		n.Call(mt, 1, []byte("stale"))
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	busy := n.AppendDurable(nil)
	if bytes.Equal(quiet, busy) {
		t.Fatalf("fingerprint blind to a held frame")
	}
	// The frame survives the reboot, and so must its fingerprint: two
	// post-crash states that differ only in an in-flight frame must not
	// dedup together.
	mm.CrashReset()
	if !bytes.Equal(busy, n.AppendDurable(nil)) {
		t.Fatalf("crash changed the fingerprint of surviving in-flight state")
	}
}

// TestUntracedCallAllocs: a call no fault touches allocates nothing,
// traced or not — its detail string is built only on injection. The
// traced control injects a drop and still prints the line, and the
// untraced injection still records the same detail in the log.
func TestUntracedCallAllocs(t *testing.T) {
	resp := []byte("ok")
	req := []byte("hello")
	call := func(depth int, policy fault.Policy) (allocs float64, trace []string, log []fault.Event) {
		mm := machine.New(machine.Options{TraceDepth: depth})
		n := New(mm, policy)
		n.Bind(1, func(gfs.T, []byte) []byte { return resp })
		res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			n.Call(mt, 1, req)
			trace = append(trace, mm.Trace()...)
			allocs = testing.AllocsPerRun(100, func() { n.Call(mt, 1, req) })
		})
		if res.Outcome != machine.Done {
			t.Fatalf("era: %+v", res)
		}
		return allocs, trace, n.Log()
	}
	if a, _, _ := call(0, fault.Never{}); a != 0 {
		t.Errorf("untraced delivered call: %v allocations, want 0", a)
	}
	if a, _, _ := call(machine.TraceAll, fault.Never{}); a != 0 {
		t.Errorf("traced delivered call: %v allocations, want 0 (nothing to trace)", a)
	}
	drops := funcPolicy(func(c fault.Class, _ uint64) bool { return c == fault.Drop })
	_, lines, _ := call(machine.TraceAll, drops)
	if want := "t0: net.fault drop#0 call to node 1 (5 bytes)"; len(lines) != 1 || lines[0] != want {
		t.Errorf("traced drop printed %q, want [%q]", lines, want)
	}
	if _, lines, log := call(0, drops); len(lines) != 0 || log[0].String() != "drop#0 call to node 1 (5 bytes)" {
		t.Errorf("untraced drop: trace %q, first logged event %q", lines, log[0])
	}
}

// footprints is a machine.Reducer that records each transition's
// declared accesses in order and lets every draw through.
type footprints struct{ ran [][]machine.Access }

func (f *footprints) Sched(ran *machine.Footprint, _ []machine.TID, _ bool) bool {
	if ran != nil {
		f.ran = append(f.ran, append([]machine.Access(nil), ran.Accesses()...))
	}
	return true
}

// conflict reports whether two footprints touch one object in modes
// that do not commute.
func conflict(a, b []machine.Access) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Conflicts(y) {
				return true
			}
		}
	}
	return false
}

// TestCallsCommuteAcrossDestinations: the send declares its
// destination's queue and reads the partition charge, so a call to node
// 0 and one to node 1 commute, and two calls to node 0 do not.
func TestCallsCommuteAcrossDestinations(t *testing.T) {
	rec := &footprints{}
	m := machine.New(machine.Options{Reducer: rec})
	n := New(m, fault.Never{})
	for i := range 2 {
		n.Bind(i, func(gfs.T, []byte) []byte { return []byte("ok") })
	}
	var sends []int
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		for _, dst := range []int{0, 1, 0} {
			mt.StepDeclared("mark")
			sends = append(sends, len(rec.ran)+1) // the send's transition ends at the next draw
			n.Call(mt, dst, []byte("req"))
		}
		mt.StepDeclared("mark")
	})
	if res.Outcome != machine.Done {
		t.Fatal(res)
	}
	to0, to1, to0again := rec.ran[sends[0]], rec.ran[sends[1]], rec.ran[sends[2]]
	if len(to0) == 0 || len(to1) == 0 {
		t.Fatalf("a send declared nothing: %v, %v", to0, to1)
	}
	if conflict(to0, to1) {
		t.Errorf("calls to nodes 0 and 1 conflict: %v vs %v", to0, to1)
	}
	if !conflict(to0, to0again) {
		t.Errorf("two calls to node 0 commute: %v vs %v", to0, to0again)
	}
}

// TestLinkStateDeclarations: a burst's start and each frame it eats
// write the partition charge, which every later send and Partitioned
// read; the code after a late frame's handler writes its queue again;
// and two sends to different nodes commute. The calls: to node 0,
// starting a burst; to node 1, eaten by it; to node 0, held back
// (reordered); to node 1, delivered; to node 0, delivering the held
// frame late. Each declaration is the only access its case's pair of
// transitions shares, so a dropped Touch makes its case commute.
func TestLinkStateDeclarations(t *testing.T) {
	rec := &footprints{}
	m := machine.New(machine.Options{Reducer: rec})
	n := New(m, funcPolicy(func(c fault.Class, i uint64) bool {
		return (c == fault.Partition || c == fault.Reorder) && i == 0
	}))
	var late []int
	n.Bind(0, func(t gfs.T, _ []byte) []byte {
		t.(*machine.T).StepDeclared("handle")
		late = append(late, len(rec.ran)) // the transition the step starts
		return nil
	})
	n.Bind(1, func(gfs.T, []byte) []byte { return nil })
	var sends []int
	partitioned := -1
	res := m.RunEra(netChooser(1), false, func(mt *machine.T) {
		for i, dst := range []int{0, 1, 0, 1, 0} {
			if i == 3 {
				mt.StepDeclared("mark")
				partitioned = len(rec.ran)
				n.Partitioned()
			}
			mt.StepDeclared("mark")
			sends = append(sends, len(rec.ran)+1) // the send's transition ends at the next draw
			n.Call(mt, dst, []byte("req"))
		}
		mt.StepDeclared("mark")
	})
	if res.Outcome != machine.Done || len(late) != 2 {
		t.Fatalf("era %v, %d handler runs on node 0, want 2", res, len(late))
	}
	start, eaten, held, delivered := rec.ran[sends[0]], rec.ran[sends[1]], rec.ran[sends[2]], rec.ran[sends[3]]
	for _, c := range []struct {
		name     string
		a, b     []machine.Access
		conflict bool
	}{
		{"burst start / later send", start, delivered, true},
		{"eaten frame / later send", eaten, held, true},
		{"burst start / Partitioned", start, rec.ran[partitioned], true},
		{"after a late handler / send to its node", rec.ran[late[0]], held, true},
		{"sends to nodes 0 and 1", held, delivered, false},
	} {
		if got := conflict(c.a, c.b); got != c.conflict {
			t.Errorf("%s: conflict %v, want %v (%v vs %v)", c.name, got, c.conflict, c.a, c.b)
		}
	}
}
