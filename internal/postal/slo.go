package postal

import "fmt"

// Gate is one declared latency SLO: quantile q of op's latency must
// not exceed MaxSeconds. Gates make a benchmark run answer pass/fail
// instead of leaving a wall of numbers to squint at.
type Gate struct {
	Op         string  // "deliver" or "pickup"
	Quantile   float64 // e.g. 0.99
	MaxSeconds float64
}

func (g Gate) String() string {
	return fmt.Sprintf("%s p%g <= %gs", g.Op, g.Quantile*100, g.MaxSeconds)
}

// GateResult is one gate evaluated against a run.
type GateResult struct {
	Gate
	ObservedSeconds float64
	Pass            bool
}

func (r GateResult) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s: observed %.6fs — %s", r.Gate, r.ObservedSeconds, verdict)
}

// DefaultGates declares the stock SLOs for a RAM-backed store under
// the full sync discipline. The bounds are deliberately loose — they
// catch order-of-magnitude regressions (a lost fsync batching, a lock
// held across I/O), not scheduler jitter on a busy CI box.
func DefaultGates() []Gate {
	return []Gate{
		{Op: "deliver", Quantile: 0.99, MaxSeconds: 0.100},
		{Op: "pickup", Quantile: 0.99, MaxSeconds: 0.200},
	}
}

// PhaseGateResult is one gate evaluated against one phase of a
// windowed run.
type PhaseGateResult struct {
	Phase string
	GateResult
}

func (r PhaseGateResult) String() string {
	return fmt.Sprintf("[%s] %s", r.Phase, r.GateResult)
}

// EvaluatePhaseGates checks the gates against every *gated* phase of a
// windowed run (drill phases are reported, not gated — see
// PhaseWindow.Gated). The verdict is the AND over all gated phases:
// the steady-state service around a drill must hold its SLO even
// while the drill window itself is allowed to stall.
func EvaluatePhaseGates(gates []Gate, phases []PhaseLatency) ([]PhaseGateResult, bool) {
	all := true
	var out []PhaseGateResult
	for _, p := range phases {
		if !p.Gated {
			continue
		}
		rs, ok := EvaluateGates(gates, OpenLoopResult{Deliver: p.Deliver, Pickup: p.Pickup})
		for _, r := range rs {
			out = append(out, PhaseGateResult{Phase: p.Name, GateResult: r})
		}
		if !ok {
			all = false
		}
	}
	return out, all
}

// quantileOf picks the requested quantile out of a summary; the
// summaries pre-compute p50/p90/p99, which is the menu gates can use.
func quantileOf(s LatencySummary, q float64) (float64, bool) {
	switch q {
	case 0.50:
		return s.P50, true
	case 0.90:
		return s.P90, true
	case 0.99:
		return s.P99, true
	}
	return 0, false
}

// EvaluateGates checks each gate against an open-loop run. Unknown ops
// or quantiles fail loudly (Pass=false, Observed=-1) rather than
// silently passing — a misdeclared gate guarding nothing is worse than
// no gate. The second return is the AND of all gates.
func EvaluateGates(gates []Gate, r OpenLoopResult) ([]GateResult, bool) {
	results := make([]GateResult, 0, len(gates))
	all := true
	for _, g := range gates {
		var sum LatencySummary
		known := true
		switch g.Op {
		case "deliver":
			sum = r.Deliver
		case "pickup":
			sum = r.Pickup
		default:
			known = false
		}
		obsv, ok := quantileOf(sum, g.Quantile)
		if !known || !ok {
			results = append(results, GateResult{Gate: g, ObservedSeconds: -1, Pass: false})
			all = false
			continue
		}
		res := GateResult{Gate: g, ObservedSeconds: obsv, Pass: obsv <= g.MaxSeconds}
		if !res.Pass {
			all = false
		}
		results = append(results, res)
	}
	return results, all
}
