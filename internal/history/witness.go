package history

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// WitnessStep is one move in a successful forward simulation: either a
// real-time event being passed, or a pending operation taking its
// atomic spec step (its linearization point), or the spec's crash
// transition firing.
type WitnessStep struct {
	// Kind is "event", "linearize", or "crash-step".
	Kind string
	// EventIndex is the history position (Kind "event").
	EventIndex int
	// ID is the linearized op (Kind "linearize").
	ID OpID
	// Op is the linearized operation (Kind "linearize").
	Op spec.Op
	// Helped is true when the op never returned: its effect was
	// completed on the dead thread's behalf (recovery helping, §5.4).
	Helped bool
	// StateKey is the spec state after this move.
	StateKey string
}

// Witness reconstructs a concrete linearization for a passing history —
// the refinement diagram of Figure 6, mechanized: which spec transition
// each operation's effect corresponds to, and where the crash steps
// fall. It reports ok=false when the history does not refine the spec
// (or is vacuous via UB, which has no meaningful witness).
func Witness(sp spec.Interface, h History) ([]WitnessStep, bool) {
	c, err := newChecker(sp, h)
	if err != nil {
		return nil, false
	}

	var trail []WitnessStep
	push := func(s WitnessStep) { trail = append(trail, s) }
	pop := func() { trail = trail[:len(trail)-1] }
	var rec func(i int, st spec.State) bool
	rec = func(i int, st spec.State) bool {
		if i == len(h) {
			return true
		}
		// Remember dead ends (memo verdict false, as in the checker's
		// search) so witness extraction stays fast.
		if ok, seen := c.memo[string(c.memoKey(i, st))]; seen && !ok {
			return false
		}
		switch e := h[i]; e.Kind {
		case Invoke:
			push(WitnessStep{Kind: "event", EventIndex: i, StateKey: sp.Key(st)})
			if rec(i+1, st) {
				return true
			}
			pop()
		case Return:
			if op := c.opAt[i]; c.linearized(op) {
				push(WitnessStep{Kind: "event", EventIndex: i, StateKey: sp.Key(st)})
				c.clearLin(op)
				if rec(i+1, st) {
					return true
				}
				c.setLin(op)
				pop()
			}
		case Crash:
			next := sp.Crash(st)
			push(WitnessStep{Kind: "crash-step", EventIndex: i, StateKey: sp.Key(next)})
			mark := c.crash()
			if rec(i+1, next) {
				return true
			}
			c.uncrash(mark)
			pop()
		}

		for op := range c.ops {
			if !c.linearizable(op, i) {
				continue
			}
			info := &c.ops[op]
			ret, helped := c.stepRet(op)
			nexts, ub := sp.Step(st, info.op, ret)
			if ub {
				return false // vacuous histories have no witness
			}
			c.setLin(op)
			for _, ns := range nexts {
				push(WitnessStep{
					Kind: "linearize", ID: info.id, Op: info.op,
					Helped: helped, StateKey: sp.Key(ns),
				})
				if rec(i, ns) {
					return true
				}
				pop()
			}
			c.clearLin(op)
		}
		c.memo[string(c.memoKey(i, st))] = false
		return false
	}

	if !rec(0, sp.Init()) {
		return nil, false
	}
	return trail, true
}

// FormatWitness renders a witness as a Figure 6-style two-row diagram:
// real-time events on one side, the spec transitions they map to on the
// other.
func FormatWitness(h History, w []WitnessStep) string {
	var b strings.Builder
	b.WriteString("code events                              spec transitions\n")
	b.WriteString("-----------                              ----------------\n")
	for _, s := range w {
		switch s.Kind {
		case "event":
			fmt.Fprintf(&b, "%-40s\n", h[s.EventIndex].String())
		case "linearize":
			note := ""
			if s.Helped {
				note = "  (helped: completed after the thread died)"
			}
			fmt.Fprintf(&b, "%-40s %v%s\n", "", s.Op, note)
			fmt.Fprintf(&b, "%-40s   -> %s\n", "", s.StateKey)
		case "crash-step":
			fmt.Fprintf(&b, "%-40s CRASH\n", h[s.EventIndex].String())
			fmt.Fprintf(&b, "%-40s   -> %s\n", "", s.StateKey)
		}
	}
	return b.String()
}
