package explore

import (
	"fmt"
	"slices"

	"repro/internal/history"
	"repro/internal/machine"
)

// SelfCheck is the mechanical witness for both reductions' soundness
// arguments (DESIGN.md "Crash-boundary dedup" and "Source sets and
// wakeup trees"): it runs the scenario's systematic search twice at the
// same budget — once with Options.NoReduce, once with crash-boundary
// dedup and wakeup trees on —
// and fails when the two runs disagree on the verdict (violation found
// or not), or when only the plain search completes. When the reduced
// search completes it also compares what they saw: the set of outcomes
// of their checked executions, an outcome being the history, with every
// run of adjacent invocations and every run of adjacent responses in
// canonical order, plus the final durable state. Executions the
// reductions cut are covered by executions they ran, so every outcome
// the plain search reached must be in the reduced set, and when both
// complete the sets must be equal. A reduced search that completes
// where the plain one stops at the budget is the reductions' point, not
// a disagreement. For searches both stop at the budget, both runs carry
// only the weaker bounded claim, and the check still catches a
// reduction that hides a violation the plain search finds within budget.
//
// Options.StressExecutions, when set, adds random executions to the
// plain run only, after its systematic search: their outcomes join its
// set (and a violation among them its verdict), a sample of the orders a
// plain search stopped at the budget never reached. The reduced run has
// no stress phase, since the reductions only act on the systematic one.
//
// When both runs find a counterexample, each is additionally replayed
// to confirm it reproduces. The returned reports let callers print the
// coverage the reductions bought.
func SelfCheck(s *Scenario, opts Options) (with, without *Report, err error) {
	off, offOut := opts, &outcomeSet{}
	off.NoReduce = true
	without = run(s, off, offOut)

	on, onOut := opts, &outcomeSet{}
	on.NoReduce, on.StressExecutions = false, 0
	with = run(s, on, onOut)

	for _, r := range []*Report{without, with} {
		if r.Err != nil {
			return with, without, fmt.Errorf("scenario %s: %w", s.Name, r.Err)
		}
	}
	if with.OK() != without.OK() {
		return with, without, fmt.Errorf("scenario %s: verdict changed by the reductions: without=%s with=%s",
			s.Name, verdict(without), verdict(with))
	}
	if without.Complete && !with.Complete {
		return with, without, fmt.Errorf("scenario %s: completeness changed by the reductions: without complete=%v, with complete=%v",
			s.Name, without.Complete, with.Complete)
	}
	if with.Complete {
		lost, added := offOut.diff(onOut)
		if !without.Complete {
			added = 0 // the budget cut the plain search short
		}
		if lost > 0 || added > 0 {
			return with, without, fmt.Errorf("scenario %s: outcomes changed by the reductions: %d of %d never reached, %d new",
				s.Name, lost, offOut.len(), added)
		}
	}
	for _, r := range []*Report{without, with} {
		if r.Counterexample != nil && ReplayCx(s, r.Counterexample.Choices) == nil {
			return with, without, fmt.Errorf("scenario %s: counterexample %v does not replay", s.Name, r.Counterexample.Choices)
		}
	}
	return with, without, nil
}

func verdict(r *Report) string {
	if r.OK() {
		return "OK"
	}
	return "VIOLATION"
}

// outcomeSet is the set of a search's outcomes, as 64-bit hashes.
type outcomeSet struct {
	set map[uint64]struct{}
	buf []byte
}

// add records the outcome of an execution that ended on m with history
// h.
func (o *outcomeSet) add(m *machine.Machine, h history.History) {
	o.buf = m.AppendDurable(appendOutcome(o.buf[:0], h))
	if o.set == nil {
		o.set = map[uint64]struct{}{}
	}
	o.set[fnvBytes(fnvOffset, o.buf)] = struct{}{}
}

func (o *outcomeSet) len() int { return len(o.set) }

// diff counts the outcomes of o missing from p, and those of p missing
// from o.
func (o *outcomeSet) diff(p *outcomeSet) (missing, extra int) {
	for k := range o.set {
		if _, ok := p.set[k]; !ok {
			missing++
		}
	}
	for k := range p.set {
		if _, ok := o.set[k]; !ok {
			extra++
		}
	}
	return missing, extra
}

// appendOutcome appends h's canonical form: each event as its kind and
// the operation it concerns (plus the response at a Return), so that
// operation IDs, which follow invocation order, do not matter; and each
// run of adjacent Invokes, and of adjacent Returns, sorted.
func appendOutcome(b []byte, h history.History) []byte {
	ops := map[history.OpID]string{}
	var group [][]byte
	kind := history.Crash
	flush := func() {
		slices.SortFunc(group, func(x, y []byte) int { return slices.Compare(x, y) })
		for _, e := range group {
			b = machine.AppendBytes(b, e)
		}
		group = group[:0]
	}
	for _, e := range h {
		if e.Kind != kind || e.Kind == history.Crash {
			flush()
			kind = e.Kind
		}
		var ev []byte
		switch e.Kind {
		case history.Invoke:
			ops[e.ID] = fmt.Sprint(e.Op)
			ev = fmt.Appendf([]byte{'I'}, "%s", ops[e.ID])
		case history.Return:
			ev = fmt.Appendf([]byte{'R'}, "%s %v", ops[e.ID], e.Ret)
		default:
			ev = []byte{'C'}
		}
		group = append(group, ev)
	}
	flush()
	return b
}
