package explore

import (
	"fmt"
	"strings"
	"time"
)

// ProgressOptions enables live progress telemetry for a long-running
// search: every Every, a Snapshot assembled from the search's atomic
// counters is handed to Sink, and a final snapshot is always emitted
// when the systematic phase ends (so short runs still report once).
//
// Reporting is read-only by construction — the sampler only loads
// atomics and quantile-reads the shared depth histogram, and the
// search never blocks on or branches over it — so reports are
// identical with and without progress enabled.
type ProgressOptions struct {
	// Every is the sampling period; 0 means 1s.
	Every time.Duration
	// Sink receives each snapshot. nil disables telemetry.
	Sink func(Snapshot)
}

// Snapshot is one progress sample of the systematic search.
type Snapshot struct {
	// Scenario is the scenario name.
	Scenario string
	// Phase is the search phase being sampled ("systematic").
	Phase string
	// Elapsed is wall-clock time since the phase started.
	Elapsed time.Duration
	// Executions is the number of executions started so far.
	Executions int64
	// ExecsPerSec is the execution rate over the last sampling
	// interval (not the lifetime average).
	ExecsPerSec float64
	// DepthP50 and DepthP99 are quantiles of the choice-sequence depth
	// of executions so far — the frontier's depth profile.
	DepthP50, DepthP99 float64
	// Pruned counts crash states at an already-claimed boundary, skipped
	// without an execution; DedupHitRate is Pruned over Executions plus
	// Pruned.
	Pruned       int64
	DedupHitRate float64
	// Evaluated counts the crash states evaluated in place.
	Evaluated int64
	// BudgetLeft is the remaining execution budget; BudgetETA
	// extrapolates its exhaustion at the current rate (0 when the rate
	// is 0 or the budget already ran out).
	BudgetLeft int64
	BudgetETA  time.Duration
	// Final marks the closing snapshot emitted when the phase ends.
	Final bool
}

// String renders the snapshot as the one-liner perennial-check prints.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s] %5.1fs: %d execs (%.0f/s), depth p50=%.0f p99=%.0f",
		s.Scenario, s.Phase, s.Elapsed.Seconds(), s.Executions, s.ExecsPerSec, s.DepthP50, s.DepthP99)
	if s.Pruned > 0 {
		fmt.Fprintf(&b, ", dedup %.0f%% hit (%d pruned)", s.DedupHitRate*100, s.Pruned)
	}
	if s.Evaluated > 0 {
		fmt.Fprintf(&b, ", crash states %d evaluated in place", s.Evaluated)
	}
	fmt.Fprintf(&b, ", budget %d left", s.BudgetLeft)
	if s.BudgetETA > 0 {
		fmt.Fprintf(&b, " (~%s)", s.BudgetETA.Round(time.Second))
	}
	if s.Final {
		b.WriteString(" [final]")
	}
	return b.String()
}

// progressLoop samples the search until stop closes, then emits one
// final snapshot and closes done. It runs off to the side of the
// search: nothing in the search ever waits for it.
func (se *search) progressLoop(po *ProgressOptions, stop, done chan struct{}) {
	defer close(done)
	every := po.Every
	if every <= 0 {
		every = time.Second
	}
	start := time.Now()
	lastT := start
	var lastExecs int64
	emit := func(final bool) {
		now := time.Now()
		execs := se.execs.Load()
		pruned := se.pruned.Load()
		depth := se.rep.Stats.Depth
		snap := Snapshot{
			Scenario:   se.s.Name,
			Phase:      "systematic",
			Elapsed:    now.Sub(start),
			Executions: execs,
			Pruned:     pruned,
			Evaluated:  se.evaluated.Load(),
			DepthP50:   depth.Quantile(0.50),
			DepthP99:   depth.Quantile(0.99),
			Final:      final,
		}
		if dt := now.Sub(lastT).Seconds(); dt > 0 {
			snap.ExecsPerSec = float64(execs-lastExecs) / dt
		}
		lastT, lastExecs = now, execs
		if n := execs + pruned; n > 0 {
			snap.DedupHitRate = float64(pruned) / float64(n)
		}
		if left := int64(se.budget) - execs; left > 0 {
			snap.BudgetLeft = left
			if snap.ExecsPerSec > 0 {
				snap.BudgetETA = time.Duration(float64(left) / snap.ExecsPerSec * float64(time.Second))
			}
		}
		po.Sink(snap)
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			emit(false)
		case <-stop:
			emit(true)
			return
		}
	}
}
