package explore

import "sync/atomic"

// search is one systematic search in progress. The atomic counters are
// its progress telemetry, kept whether or not a sampler is attached (a
// few relaxed stores per execution): executions started, pruned crash
// states, and crash states evaluated in place. The sampler in
// progressLoop only reads them, so enabling it cannot perturb the
// search.
type search struct {
	x      *runner
	s      *Scenario
	d      dfsChooser
	rep    *Report
	budget int

	execs, pruned, evaluated atomic.Int64
}

// runSystematic enumerates the scenario's choice tree depth first on x
// and fills rep. The caller has already applied option defaults.
func runSystematic(x *runner, s *Scenario, opts Options, rep *Report) {
	se := &search{x: x, s: s, rep: rep, budget: opts.MaxExecutions}
	if !opts.NoReduce {
		se.d.dd = &dedupRun{table: fpTable{}}
	}
	var stop, done chan struct{}
	if opts.Progress != nil && opts.Progress.Sink != nil {
		stop, done = make(chan struct{}), make(chan struct{})
		go se.progressLoop(opts.Progress, stop, done)
	}
	rep.Complete = se.dfs()
	se.tally()
	d := &se.d
	rep.Stats.Reseats, rep.Stats.Slept, rep.Stats.SleepBlocked = d.reseats, d.slept, d.blocked
	if d.dd != nil {
		rep.Stats.DistinctBoundaries = len(d.dd.table)
	}
	if stop != nil {
		// Stop the sampler and wait for its final snapshot so callers
		// see it before the report.
		close(stop)
		<-done
	}
}

// dfs runs one execution per choice sequence until the tree is
// exhausted, which it reports, the budget is spent, an execution fails
// (rep.Counterexample) or the checker errs (rep.Err).
func (se *search) dfs() bool {
	d, rep := &se.d, se.rep
	for {
		if rep.Executions == se.budget {
			return false
		}
		rep.Executions++
		se.execs.Store(int64(rep.Executions))
		d.reset()
		cx := se.x.runOne(se.s, d, rep, false)
		if dd := d.dd; dd != nil && dd.err != nil {
			rep.Err = dd.err // no verdict
			return false
		}
		if cx != nil {
			rep.Counterexample = cx
			return false
		}
		more := d.next()
		se.tally()
		if !more {
			return true
		}
	}
}

// tally brings the report's crash-state counts up to date with the
// chooser's, and the telemetry with the report.
func (se *search) tally() {
	st := &se.rep.Stats
	st.CrashStatesEvaluated, st.PrunedStates = se.d.statesEvaluated, se.d.statesSkipped
	se.pruned.Store(int64(st.PrunedStates))
	se.evaluated.Store(int64(st.CrashStatesEvaluated))
}
