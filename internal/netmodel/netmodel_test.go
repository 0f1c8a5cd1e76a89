package netmodel

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gfs"
	"repro/internal/machine"
)

// funcPolicy injects exactly where the test function says.
type funcPolicy func(f Fault, index uint64) bool

func (p funcPolicy) Decide(_ gfs.T, f Fault, i uint64) bool { return p(f, i) }

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
	n := New(mm, NeverPolicy{})
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
	if faults != [NumFaults]uint64{} {
		t.Fatalf("faults injected under NeverPolicy: %v", faults)
	}
	// One call consults every class once.
	for f := Fault(0); f < NumFaults; f++ {
		if calls[f] != 1 {
			t.Fatalf("class %s counted %d decision points, want 1", f, calls[f])
		}
	}
}

func TestDropIsLostAndHandlerNeverRuns(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, AlwaysPolicy{Ops: map[Fault]bool{FaultDrop: true}})
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
	n := New(mm, AlwaysPolicy{Ops: map[Fault]bool{FaultDropReply: true}})
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
	n := New(mm, AlwaysPolicy{Ops: map[Fault]bool{FaultDup: true}})
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
	n := New(mm, funcPolicy(func(f Fault, i uint64) bool {
		return f == FaultReorder && i == 0
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
	n := New(mm, funcPolicy(func(f Fault, i uint64) bool {
		return f == FaultReorder && i == 0
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
	n := New(mm, funcPolicy(func(f Fault, i uint64) bool {
		return f == FaultPartition && i == 0
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
	if _, faults := n.Counters(); faults[FaultPartition] != 1 {
		t.Fatalf("partition injected %d times, want 1", faults[FaultPartition])
	}
}

// TestCrashHealsPartitionKeepsInFlight pins the asynchronous-network
// crash semantics: a site reboot re-establishes connectivity (the
// partition burst's remaining charge is gone) but does NOT retract
// reordered frames — they live in the network and can land after both
// ends rebooted, the hazard epoch fencing exists for.
func TestCrashHealsPartitionKeepsInFlight(t *testing.T) {
	mm := machine.New(machine.Options{})
	n := New(mm, funcPolicy(func(f Fault, i uint64) bool {
		switch f {
		case FaultReorder:
			return i == 0
		case FaultPartition:
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
	pol := &ChooserPolicy{Budget: 2}
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
	n := New(mm, funcPolicy(func(f Fault, i uint64) bool {
		return f == FaultReorder && i == 0
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
