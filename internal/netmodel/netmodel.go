// Package netmodel is the modeled lossy network of the Grove setting:
// a two-endpoint message link on which send/receive is one atomic
// machine step and drop, duplication, reordering and bounded partitions
// are chooser-enumerable fault classes (tag "net") with per-class
// budgets — the shape gfs.Faulty gives storage faults, one layer up the
// stack. (A deployment's replayable partition drill is not here: it is
// repl.TCPClient.Partition, on the real transport.)
//
// The model is synchronous RPC: Call sends a request frame to the
// destination and, when the frame is delivered, runs the destination's
// handler inline on the calling thread (the handler's own store
// operations remain individually scheduled machine steps, so a remote
// apply is NOT atomic — only the frame transfer is). The caller
// observes one of three outcomes:
//
//   - Delivered: the handler ran and its response arrived.
//   - Lost:      the request never reached the destination — a definite
//     no; whatever the request asked for did not happen.
//   - Unknown:   the request may have been (or may yet be) delivered
//     but no response will come — the indeterminate outcome a client
//     leg must treat as "maybe applied".
//
// Net is a machine.Device with the asynchronous-network crash
// semantics of the Grove setting: a machine crash (site reboot) heals
// the partition burst — re-establishing connectivity is what booting
// does — but held reordered frames SURVIVE the reboot, because they
// live in the network, not on either node. A frame a retransmitting
// fabric still holds can land after both ends rebooted, which is
// exactly the hazard epoch fencing exists to stop; the device's
// Fingerprinter encoding lets crash-boundary dedup distinguish states
// by their in-flight frames and partition charge.
package netmodel

import (
	"fmt"

	"repro/internal/gfs"
	"repro/internal/machine"
)

// Outcome classifies what the caller of Net.Call (or any Transport
// built to the same contract, like repl's TCP client) learned about its
// request.
type Outcome int

const (
	// Delivered: handler ran, response returned.
	Delivered Outcome = iota
	// Lost: the request was never delivered — a definite no.
	Lost
	// Unknown: the request may have been applied; the reply is gone.
	Unknown
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Lost:
		return "lost"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Handler serves one endpoint's requests. It runs inline on the calling
// thread; its store operations are ordinary scheduled steps.
type Handler func(t gfs.T, req []byte) []byte

// maxHolds bounds how many redelivery opportunities a reordered frame
// may decline before the network drops it for good, keeping the choice
// tree finite.
const maxHolds = 3

// held is one reordered request frame waiting for a late delivery.
type held struct {
	req   []byte
	holds int
}

// Net models the link between two nodes (endpoints 0 and 1). It is
// model-only — Call requires a *machine.T — and relies on the machine
// scheduler's serialization instead of locks.
type Net struct {
	policy Policy

	// Metrics, when non-nil, counts calls, outcomes and injected faults
	// (net_*). Leave nil under the checker; every method is
	// nil-receiver-safe.
	Metrics *NetMetrics

	handlers [2]Handler
	charge   int       // remaining calls a partition burst will eat
	stash    [2][]held // reordered frames per destination
	calls    [NumFaults]uint64
	faults   [NumFaults]uint64
	log      []Event
}

// New returns a Net driven by policy and registers it as a device on m,
// so crashes clear the in-flight state and dedup fingerprints cover it.
func New(m *machine.Machine, policy Policy) *Net {
	n := &Net{policy: policy}
	m.RegisterDevice(n)
	return n
}

// Bind installs node's request handler.
func (n *Net) Bind(node int, h Handler) { n.handlers[node] = h }

// Crash implements machine.Device: a site reboot re-establishes the
// link, so a burst partition's remaining charge is moot — but held
// reordered frames are the NETWORK's state, not the site's, and stay
// in flight across the reboot. Replication protocols must fence them
// out by epoch, not count on a crash to retract them.
func (n *Net) Crash() {
	n.charge = 0
}

// AppendDurable implements machine.Fingerprinter. The in-flight frames
// and the partition charge determine which future behaviors are
// reachable, so they are part of the canonical state (at a crash
// boundary both are freshly zeroed — encoding them keeps the device
// honest if fingerprints are ever taken elsewhere). Like gfs.Faulty,
// the per-class decision counters are excluded: ChooserPolicy ignores
// indices.
func (n *Net) AppendDurable(b []byte) []byte {
	b = machine.AppendUint64(b, uint64(n.charge))
	for dst := range n.stash {
		b = machine.AppendUint64(b, uint64(len(n.stash[dst])))
		for _, h := range n.stash[dst] {
			b = machine.AppendBytes(b, h.req)
			b = machine.AppendUint64(b, uint64(h.holds))
		}
	}
	return b
}

// Counters returns per-class (decision points, injected faults).
func (n *Net) Counters() (calls, faults [NumFaults]uint64) {
	return n.calls, n.faults
}

// Log returns a copy of the injection log in injection order.
func (n *Net) Log() []Event {
	return append([]Event{}, n.log...)
}

// Partitioned reports whether a partition burst is still eating calls.
func (n *Net) Partitioned() bool { return n.charge > 0 }

// partitionBurst is how many calls (across both directions) one
// injected partition loses before the link heals.
const partitionBurst = 2

// decide counts one decision point of class f and asks the policy; on
// injection it records the replayable event. No extra machine step is
// taken — the decision rides the call's single send step.
func (n *Net) decide(mt *machine.T, f Fault, detail string) bool {
	idx := n.calls[f]
	n.calls[f]++
	if !n.policy.Decide(mt, f, idx) {
		return false
	}
	mt.Tracef("net.fault %s#%d %s", f, idx, detail)
	n.faults[f]++
	n.log = append(n.log, Event{Fault: f, Index: idx, Detail: detail})
	n.Metrics.FaultInjected(f)
	return true
}

// flushStale offers every held frame destined for dst one redelivery
// opportunity: the chooser picks deliver-now (the stale frame arrives
// just before the current one — reordering made concrete) or
// hold-longer; after maxHolds declined opportunities the frame is
// dropped for good. The late handler's response has no waiting caller
// and is discarded. These choices consume no fault budget — they
// complete a reorder that was already paid for.
func (n *Net) flushStale(mt *machine.T, dst int) {
	kept := n.stash[dst][:0]
	for _, h := range n.stash[dst] {
		if mt.Choose(2, "net") == 1 {
			mt.Tracef("net.stale-delivery to node %d (%d bytes)", dst, len(h.req))
			n.handlers[dst](mt, h.req)
			n.Metrics.StaleDeliveredInc()
			continue
		}
		h.holds++
		if h.holds < maxHolds {
			kept = append(kept, h)
		}
	}
	n.stash[dst] = kept
}

// Call sends req to node dst and reports the response and what the
// caller may conclude. The send is one atomic machine step; every fault
// class then gets its decision point in a fixed order (partition, drop,
// reorder, duplicate, drop-reply), and the handler — when the frame is
// delivered — runs inline on this thread.
func (n *Net) Call(t gfs.T, dst int, req []byte) ([]byte, Outcome) {
	mt, ok := t.(*machine.T)
	if !ok {
		panic("netmodel: Net.Call requires a modeled thread; deployments use a real transport")
	}
	if dst < 0 || dst >= len(n.handlers) || n.handlers[dst] == nil {
		mt.Failf("netmodel: call to unbound node %d", dst)
	}
	n.Metrics.CallsInc()
	mt.Step("net.send")

	// A partition burst in progress eats the frame, whichever direction
	// it travels; no further decisions are consulted while it lasts.
	if n.charge > 0 {
		n.charge--
		mt.Tracef("net.partitioned call to node %d (%d calls left in burst)", dst, n.charge)
		n.Metrics.OutcomeObserved(Lost)
		return nil, Lost
	}
	detail := fmt.Sprintf("call to node %d (%d bytes)", dst, len(req))
	if n.decide(mt, FaultPartition, detail) {
		n.charge = partitionBurst - 1 // this call is the burst's first casualty
		n.Metrics.OutcomeObserved(Lost)
		return nil, Lost
	}
	if n.decide(mt, FaultDrop, detail) {
		n.Metrics.OutcomeObserved(Lost)
		return nil, Lost
	}

	// The link is passing frames: stale reordered frames get their
	// redelivery opportunities before the current one lands.
	n.flushStale(mt, dst)

	if n.decide(mt, FaultReorder, detail) {
		n.stash[dst] = append(n.stash[dst], held{req: append([]byte(nil), req...)})
		n.Metrics.OutcomeObserved(Unknown)
		return nil, Unknown // still in flight: maybe delivered later
	}
	if n.decide(mt, FaultDup, detail) {
		resp := n.handlers[dst](mt, req)
		n.handlers[dst](mt, req) // duplicate arrival; its response is discarded
		if n.decide(mt, FaultDropReply, detail) {
			n.Metrics.OutcomeObserved(Unknown)
			return nil, Unknown
		}
		n.Metrics.OutcomeObserved(Delivered)
		return resp, Delivered
	}
	resp := n.handlers[dst](mt, req)
	if n.decide(mt, FaultDropReply, detail) {
		n.Metrics.OutcomeObserved(Unknown)
		return nil, Unknown
	}
	n.Metrics.OutcomeObserved(Delivered)
	return resp, Delivered
}
