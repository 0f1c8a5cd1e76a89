package explore

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Parallel systematic search (DESIGN.md "Parallel search"). The choice tree is
// partitioned by schedule prefix: a job is a pinned prefix of choices,
// and the worker that takes it enumerates exactly the executions
// extending that prefix with its private dfsChooser and machines.
// Workers share nothing per execution — each runOne builds a fresh
// machine — so checked code stays data-race-free by construction; the
// only shared structures are the job queue, the fingerprint table (lock
// striped) and the atomic execution budget. Work stealing is by
// donation: a worker that notices starving peers splits the untried
// siblings of its shallowest open choice point into new jobs, which
// partitions its remaining subtree exactly (no execution is lost or
// explored twice).
//
// Counterexample determinism: candidate counterexamples are ordered by
// DFS preorder on their choice sequences (lexicographic, with a prefix
// ordered before its extensions) and the least one wins. After a
// candidate is found, workers keep draining jobs but skip any subtree
// whose spine is already preorder-greater, so every execution before
// the winner is still visited. A search that completes therefore
// reports the same counterexample the sequential DFS would have found
// first; with one worker the machinery degenerates to exactly the
// sequential loop. Jobs that lie wholly after the winner were run only
// because their worker had not seen it yet; their executions are left
// out of the report, so its counts do not depend on that race.

type searchPool struct {
	s        *Scenario
	workers  int
	table    *fpTable
	reduce   bool // sleep sets
	outcomes *outcomeSet

	// execsLeft counts down the shared MaxExecutions budget; workers
	// claim one slot per execution before running it.
	execsLeft int64

	// Progress telemetry, maintained whether or not a sampler is
	// attached (a few relaxed atomic bumps per execution): executions
	// started, pruned crash states, crash states evaluated in place and
	// skipped, and per-worker donated jobs. The sampler in progressLoop
	// only ever reads these, so enabling it cannot perturb the search.
	execs     atomic.Int64
	pruned    atomic.Int64
	evaluated atomic.Int64
	skipped   atomic.Int64
	donated   []atomic.Int64

	mu          sync.Mutex
	cond        *sync.Cond
	queue       [][]int // LIFO of pinned prefixes
	outstanding int     // queued + in-flight jobs
	idle        int     // workers blocked waiting for a job
	stopped     bool    // budget exhausted or a checker error: abandon everything
	budgetHit   bool
	dedupOff    bool  // a device proved unfingerprintable
	err         error // the first checker error: abandon everything
	best        *Counterexample
}

// runSystematic drains the scenario's whole choice tree with a worker
// pool and fills rep. The caller has already applied option defaults.
func runSystematic(s *Scenario, opts Options, workers int, rep *Report, outcomes *outcomeSet) {
	p := &searchPool{
		s:         s,
		workers:   workers,
		execsLeft: int64(opts.MaxExecutions),
		queue:     [][]int{nil}, // the root job: the empty prefix
		donated:   make([]atomic.Int64, workers),
		reduce:    !opts.NoReduce,
		outcomes:  outcomes,
	}
	p.outstanding = 1
	p.cond = sync.NewCond(&p.mu)
	if !opts.NoReduce && s.Fingerprint != nil {
		p.table = newFPTable()
	}

	var progStop, progDone chan struct{}
	if opts.Progress != nil && opts.Progress.Sink != nil {
		progStop, progDone = make(chan struct{}), make(chan struct{})
		go p.progressLoop(opts.Progress, s.Name, rep.Stats.Depth, progStop, progDone)
	}

	wjobs := make([][]jobRun, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The depth histogram is lock-free, so workers share it.
			wjobs[w] = p.worker(w, rep.Stats.Depth)
		}(w)
	}
	wg.Wait()
	if progStop != nil {
		// Stop the sampler and wait for its final snapshot so callers
		// see it before the report.
		close(progStop)
		<-progDone
	}

	per := make([]WorkerStats, workers)
	for w, jobs := range wjobs {
		for _, j := range jobs {
			rep.Stats.Reseats += j.rep.Stats.Reseats // never expected: every job's count
			if p.best != nil && cmpChoices(j.prefix, p.best.Choices) > 0 {
				continue // wholly after the winner
			}
			rep.Executions += j.rep.Executions
			rep.CrashedExecutions += j.rep.CrashedExecutions
			rep.CheckedStates += j.rep.CheckedStates
			rep.Stats.PrunedStates += j.rep.Stats.PrunedStates
			rep.Stats.CrashStatesEvaluated += j.rep.Stats.CrashStatesEvaluated
			rep.Stats.CrashStatesSkipped += j.rep.Stats.CrashStatesSkipped
			rep.Stats.Slept += j.rep.Stats.Slept
			rep.Stats.SleepBlocked += j.rep.Stats.SleepBlocked
			rep.Stats.VerdictsDistinct += j.rep.Stats.VerdictsDistinct
			rep.Stats.VerdictsReused += j.rep.Stats.VerdictsReused
			per[w].Executions += j.rep.Executions
			per[w].Pruned += j.rep.Stats.PrunedStates
		}
	}
	rep.Stats.PerWorker = per
	rep.Stats.DedupActive = p.table != nil && !p.dedupOff
	if p.table != nil {
		rep.Stats.DistinctBoundaries = p.table.size()
	}
	if rep.Err = p.err; rep.Err != nil {
		return // no verdict
	}
	rep.Counterexample = p.best
	rep.Complete = p.best == nil && !p.budgetHit
}

// jobRun is one finished job's share of the search.
type jobRun struct {
	prefix []int
	rep    Report
}

func (p *searchPool) worker(w int, depth *obs.Histogram) (jobs []jobRun) {
	x := runner{outcomes: p.outcomes}
	defer x.carriers.Release()
	for {
		prefix, ok := p.take()
		if !ok {
			return jobs
		}
		j := jobRun{prefix: prefix, rep: Report{Stats: Stats{Depth: depth}}}
		p.explore(&x, prefix, &j.rep, w)
		jobs = append(jobs, j)
		p.finish()
	}
}

// take blocks until a job is available, all work is done, or the search
// stops.
func (p *searchPool) take() ([]int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.stopped {
			return nil, false
		}
		if n := len(p.queue); n > 0 {
			j := p.queue[n-1]
			p.queue = p.queue[:n-1]
			return j, true
		}
		if p.outstanding == 0 {
			return nil, false
		}
		p.idle++
		p.cond.Wait()
		p.idle--
	}
}

func (p *searchPool) finish() {
	p.mu.Lock()
	p.outstanding--
	if p.outstanding == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// claim takes one execution slot from the shared budget; on exhaustion
// it stops the whole search (the report becomes budget-bounded).
func (p *searchPool) claim() bool {
	if atomic.AddInt64(&p.execsLeft, -1) >= 0 {
		return true
	}
	p.mu.Lock()
	p.budgetHit = true
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	return false
}

// explore enumerates the subtree pinned at prefix on behalf of worker w,
// on the worker's runner. Sleep sets start empty there, so a donated
// job may explore executions a one-worker search would have skipped;
// never fewer.
func (p *searchPool) explore(x *runner, prefix []int, wrep *Report, w int) {
	d := &dfsChooser{reduce: p.reduce}
	d.seed(prefix)
	if p.table != nil {
		d.dd = &dedupRun{table: p.table, s: p.s}
	}
	// tally moves the crash states the chooser evaluated and skipped
	// since the last call into the job's report and the telemetry.
	tally := func() {
		ev, sk := d.statesEvaluated-wrep.Stats.CrashStatesEvaluated, d.statesSkipped-wrep.Stats.CrashStatesSkipped
		wrep.Stats.CrashStatesEvaluated += ev
		wrep.Stats.CrashStatesSkipped += sk
		wrep.Stats.PrunedStates += sk
		p.evaluated.Add(int64(ev))
		p.skipped.Add(int64(sk))
		p.pruned.Add(int64(sk))
	}
	defer func() {
		tally()
		wrep.Stats.Reseats += d.reseats
		wrep.Stats.Slept += d.slept
		wrep.Stats.SleepBlocked += d.blocked
	}()
	for {
		if p.pastBest(d) {
			return
		}
		if !p.claim() {
			return
		}
		wrep.Executions++
		p.execs.Add(1)
		d.reset()
		if dd := d.dd; dd != nil {
			dd.pruned, dd.unfingerprintable, dd.err = false, false, nil
		}
		cx := x.runOne(p.s, d, wrep, false)
		if dd := d.dd; dd != nil {
			if dd.err != nil {
				p.fail(dd.err)
				return
			}
			if dd.pruned {
				wrep.Stats.PrunedStates++
				p.pruned.Add(1)
			}
			if dd.unfingerprintable {
				p.mu.Lock()
				p.dedupOff = true
				p.mu.Unlock()
			}
		}
		if cx != nil {
			p.offerBest(cx)
			return
		}
		p.donate(d, w)
		more := d.next()
		tally()
		if !more {
			return
		}
	}
}

// fail stops the whole search at a checker error; the first one is
// reported.
func (p *searchPool) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// offerBest installs cx if it is preorder-least among candidates.
func (p *searchPool) offerBest(cx *Counterexample) {
	p.mu.Lock()
	if p.best == nil || cmpChoices(cx.Choices, p.best.Choices) < 0 {
		p.best = cx
	}
	p.mu.Unlock()
}

// pastBest reports whether every execution remaining in d's subtree is
// preorder-greater than the best counterexample found so far (DFS
// enumerates in strictly increasing preorder, so the current spine is a
// lower bound), or a checker error has ended the search.
func (p *searchPool) pastBest(d *dfsChooser) bool {
	p.mu.Lock()
	best, err := p.best, p.err
	p.mu.Unlock()
	if err != nil {
		return true // a checker error ends the search
	}
	if best == nil {
		return false
	}
	return cmpChoices(d.spine(), best.Choices) > 0
}

// donate splits off jobs when peers are starving and the queue is
// empty. splitShallowest only touches worker-local state; holding the
// pool lock just keeps idle/queue consistent with the decision.
func (p *searchPool) donate(d *dfsChooser, w int) {
	if p.workers == 1 {
		return
	}
	p.mu.Lock()
	if p.idle > 0 && len(p.queue) == 0 && !p.stopped {
		if jobs := d.splitShallowest(); len(jobs) > 0 {
			p.queue = append(p.queue, jobs...)
			p.outstanding += len(jobs)
			p.donated[w].Add(int64(len(jobs)))
			p.cond.Broadcast()
		}
	}
	p.mu.Unlock()
}

// cmpChoices orders choice sequences by DFS preorder: lexicographic,
// with a prefix ordered before its extensions.
func cmpChoices(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// seed pins the chooser to a donated prefix: the first len(prefix)
// choice points replay the prefix (their branching factors are learned
// on first replay) and next() never backtracks into them.
func (d *dfsChooser) seed(prefix []int) {
	d.points = make([]choicePoint, len(prefix))
	for i, c := range prefix {
		d.points[i] = choicePoint{chosen: c} // n learned at first Choose
	}
	d.pinned = len(prefix)
}

// spine returns the chosen values of all recorded choice points — the
// path the next execution will replay before extending with option 0.
func (d *dfsChooser) spine() []int {
	out := make([]int, len(d.points))
	for i, p := range d.points {
		out[i] = p.chosen
	}
	return out
}

// splitShallowest donates the untried siblings of the shallowest open
// choice point below the pin as new jobs and excludes them from this
// chooser's own enumeration (via the point's limit), partitioning the
// remaining subtree exactly. Asleep options are not donated: this
// chooser would have skipped them too. Jobs are returned largest-option
// first so a LIFO queue pops the preorder-least prefix first. Returns
// nil when nothing is splittable.
func (d *dfsChooser) splitShallowest() [][]int {
	for i := d.pinned; i < len(d.points); i++ {
		pt := &d.points[i]
		lim := pt.n
		if pt.limit > 0 && pt.limit < lim {
			lim = pt.limit
		}
		if pt.n == 0 || pt.chosen+1 >= lim {
			continue
		}
		var opts []int
		for c := lim - 1; c > pt.chosen; c-- {
			if s := d.sched(pt); s == nil || c >= s.nth || !d.asleep(s, c) {
				opts = append(opts, c)
			}
		}
		if len(opts) == 0 {
			continue
		}
		base := make([]int, i)
		for j := 0; j < i; j++ {
			base[j] = d.points[j].chosen
		}
		d.markDonated(i)
		out := make([][]int, 0, len(opts))
		for _, c := range opts {
			pre := make([]int, i+1)
			copy(pre, base)
			pre[i] = c
			out = append(out, pre)
		}
		pt.limit = pt.chosen + 1
		return out
	}
	return nil
}
