package netmodel

import (
	"fmt"

	"repro/internal/gfs"
	"repro/internal/machine"
)

// Fault enumerates the network fault classes Net can inject — the
// message-level analogue of gfs.Faulty's operation classes. Every class
// is transient in the sense that the link eventually works again
// (a partition is a bounded burst, see FaultPartition), so none needs
// the explicit opt-in that gfs reserves for permanent death and silent
// rot: node death stays where it already lives, on the node's own
// fail-stop fault axis.
type Fault int

const (
	// FaultDrop loses the request frame: the handler never runs, the
	// caller observes Lost — a definite no.
	FaultDrop Fault = iota
	// FaultDup delivers the request twice back to back; the duplicate's
	// response has no waiting caller and is discarded. Protocols must be
	// idempotent against it.
	FaultDup
	// FaultReorder holds the request aside instead of delivering it: the
	// caller observes Unknown (the frame is still in flight), and the
	// stale frame may be delivered — out of order — at a later call to
	// the same destination, or never. Each later call to that
	// destination is one redelivery opportunity (chooser-enumerated);
	// after maxHolds missed opportunities the stale frame is dropped for
	// good.
	FaultReorder
	// FaultDropReply delivers the request and runs the handler, then
	// loses the response frame: the caller observes Unknown — the
	// request may have been applied. The indeterminate outcome every
	// distributed client leg has to survive.
	FaultDropReply
	// FaultPartition cuts the link for a bounded burst: this call and
	// the next partitionBurst-1 calls in either direction are Lost, then
	// the link heals by itself (a cable pulled and re-seated; an
	// unbounded cut would let retry loops diverge, so the enumerable
	// form is the bounded one — deployments model long partitions
	// operationally instead).
	FaultPartition
	// NumFaults is the number of network fault classes.
	NumFaults
)

// String names the fault class.
func (f Fault) String() string {
	switch f {
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	case FaultDropReply:
		return "drop-reply"
	case FaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// Event is one injected network fault, recorded in the replayable log.
// Index is the per-class decision-point counter at injection time, so
// an event identifies exactly which call faulted regardless of how
// calls interleaved.
type Event struct {
	Fault  Fault
	Index  uint64
	Detail string
}

// String renders the event for logs and debugging.
func (e Event) String() string {
	return fmt.Sprintf("%s#%d %s", e.Fault, e.Index, e.Detail)
}

// Policy decides, for the index-th decision point of a fault class,
// whether to inject. Net.Call runs on a modeled thread only, so a
// Policy need not be safe for concurrent use.
type Policy interface {
	Decide(t gfs.T, f Fault, index uint64) bool
}

// ChooserPolicy resolves network fault decisions through the modeled
// machine's Chooser under the single tag "net", so the model checker
// enumerates message loss, duplication, reordering and partitions
// exactly like it enumerates schedules, crash points and store faults.
// Budget bounds injections per execution: once spent, no further
// choices are consumed, keeping the DFS space finite even though
// protocols retry lost calls. Eligible, when non-nil, restricts which
// classes branch (nil means all — every network class heals). PerClass,
// when non-nil, caps individual classes within the overall Budget.
//
// A ChooserPolicy is per-execution state; build a fresh one in the
// scenario's Setup and cover its spent budget in the scenario's
// Fingerprint hook via AppendState.
type ChooserPolicy struct {
	Budget   int
	Eligible map[Fault]bool
	PerClass map[Fault]int
	used     int
	perClass [NumFaults]int
}

// Classes returns the set of the listed fault classes, for
// ChooserPolicy.Eligible; nil (all of them) when none is listed.
func Classes(faults ...Fault) map[Fault]bool {
	if faults == nil {
		return nil
	}
	set := make(map[Fault]bool, len(faults))
	for _, f := range faults {
		set[f] = true
	}
	return set
}

// Decide implements Policy. With a non-model thread it never injects.
func (p *ChooserPolicy) Decide(t gfs.T, f Fault, index uint64) bool {
	mt, ok := t.(*machine.T)
	if !ok || p.used >= p.Budget {
		return false
	}
	if p.Eligible != nil && !p.Eligible[f] {
		return false
	}
	if p.PerClass != nil {
		if cap, capped := p.PerClass[f]; capped && p.perClass[f] >= cap {
			return false
		}
	}
	if mt.Choose(2, "net") == 1 {
		p.used++
		p.perClass[f]++
		return true
	}
	return false
}

// AppendState appends the policy's spent budgets — the only mutable
// state a ChooserPolicy carries across a crash (it lives in the
// scenario world, not on the machine). Configuration fields are
// per-scenario constants and excluded.
func (p *ChooserPolicy) AppendState(b []byte) []byte {
	b = machine.AppendUint64(b, uint64(p.used))
	for _, c := range p.perClass {
		b = machine.AppendUint64(b, uint64(c))
	}
	return b
}

// NeverPolicy injects nothing; a Net wrapped with it is a perfect
// network (useful for differential tests).
type NeverPolicy struct{}

// Decide implements Policy.
func (NeverPolicy) Decide(gfs.T, Fault, uint64) bool { return false }

// AlwaysPolicy injects every decision point of the classes in Ops (all
// classes when Ops is nil) — for tests exercising retry exhaustion.
type AlwaysPolicy struct{ Ops map[Fault]bool }

// Decide implements Policy.
func (p AlwaysPolicy) Decide(_ gfs.T, f Fault, _ uint64) bool {
	if p.Ops == nil {
		return true
	}
	return p.Ops[f]
}
