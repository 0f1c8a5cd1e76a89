package explore

import "fmt"

// SelfCheckDedup is the mechanical witness for the dedup soundness
// argument (DESIGN.md "Crash-boundary dedup"): it runs the scenario's
// systematic search twice at the same budget — once with crash-boundary
// dedup off, once with it on — and fails when the two runs disagree on the
// verdict (violation found or not) or on completeness. For searches that
// run to completion this is exactly the property dedup must preserve; for
// budget-bounded searches both runs carry only the weaker bounded claim,
// and the check still catches a dedup table that hides a violation the
// undeduped search finds within budget.
//
// When both runs find a counterexample, each is additionally replayed
// to confirm it reproduces. Stress is disabled for both runs (dedup
// only affects the systematic phase). The returned reports let callers
// print the coverage the table bought (pruned executions, distinct
// boundaries).
func SelfCheckDedup(s *Scenario, opts Options) (with, without *Report, err error) {
	if s.Fingerprint == nil {
		return nil, nil, fmt.Errorf("scenario %s has no Fingerprint hook; dedup never activates", s.Name)
	}
	opts.StressExecutions = 0

	off := opts
	off.NoDedup = true
	without = Run(s, off)

	on := opts
	on.NoDedup = false
	with = Run(s, on)

	if !with.Stats.DedupActive {
		return with, without, fmt.Errorf("scenario %s: dedup did not activate (a device is not fingerprintable?)", s.Name)
	}
	if with.OK() != without.OK() {
		return with, without, fmt.Errorf("scenario %s: verdict changed by dedup: without=%s with=%s",
			s.Name, verdict(without), verdict(with))
	}
	if with.Complete != without.Complete {
		return with, without, fmt.Errorf("scenario %s: completeness changed by dedup: without complete=%v, with complete=%v",
			s.Name, without.Complete, with.Complete)
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
