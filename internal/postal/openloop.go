package postal

import "time"

// PhaseWindow labels a slice of an open-loop run's schedule. The load
// harness cuts a drill run into alternating steady and drill windows;
// each request is attributed to the window containing its *scheduled*
// start, so the attribution is a pure function of the schedule — two
// runs of the same seed and windows bucket identically no matter how
// the store behaved. Windows must be sorted and non-overlapping; an
// End of 0 means "to the end of the run".
type PhaseWindow struct {
	Name  string
	Start time.Duration
	End   time.Duration
	// Gated windows are held to the latency SLO gates
	// (EvaluatePhaseGates); drill windows are measured but not gated —
	// a crash-restart is *supposed* to stall its window, and the
	// interesting number is by how much.
	Gated bool
}

// OpenLoopOptions shapes an open-loop (fixed offered rate) run.
//
// The closed loop of Run reproduces Figure 11, but it hides queueing:
// a slow request delays the next request's issue, so the measured
// latencies are only of requests the system was ready for (coordinated
// omission). The open loop schedules request starts on a fixed grid
// regardless of completions and measures each latency from the
// *scheduled* start, so backlog waits count against the store.
type OpenLoopOptions struct {
	// Workers is the number of issuing goroutines; the schedule grid is
	// interleaved across them.
	Workers int
	// Users spreads requests over this many mailboxes.
	Users uint64
	// Skew, ZipfS, and Mix select the multi-tenant workload model (see
	// Workload): zero values mean the paper's uniform 50/50 mix.
	Skew  string
	ZipfS float64
	Mix   float64
	// Rate is the total offered load in requests/second across all
	// workers.
	Rate float64
	// Duration bounds the schedule; the run drains in-flight requests
	// past it.
	Duration time.Duration
	// MessageBytes sizes delivered bodies.
	MessageBytes int
	// Seed makes runs reproducible.
	Seed int64
	// Windows, when non-empty, cuts the run into labeled phases with
	// per-phase accounting (Result.Phases).
	Windows []PhaseWindow
}

func (o *OpenLoopOptions) fill() {
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Users == 0 {
		o.Users = 100
	}
	if o.Rate == 0 {
		o.Rate = 1000
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.MessageBytes == 0 {
		o.MessageBytes = 256
	}
}

// Workload returns the options' multi-tenant workload model.
func (o OpenLoopOptions) Workload() Workload {
	return Workload{Users: o.Users, Skew: o.Skew, ZipfS: o.ZipfS, Mix: o.Mix}.fill()
}

// windowIndex attributes a scheduled offset to a window: the last
// window whose slice contains it. Falls back to the last window whose
// Start has passed (contiguous windows never need it, but a gap must
// not drop a measurement), then to 0.
func windowIndex(ws []PhaseWindow, off time.Duration) int {
	for i := len(ws) - 1; i >= 0; i-- {
		if off >= ws[i].Start && (ws[i].End == 0 || off < ws[i].End) {
			return i
		}
	}
	for i := len(ws) - 1; i >= 0; i-- {
		if off >= ws[i].Start {
			return i
		}
	}
	return 0
}

// OpenLoop drives the mixed workload at a fixed offered rate and
// returns coordinated-omission-free latencies, measured from each
// request's scheduled start. Worker w owns schedule slots w,
// w+Workers, w+2·Workers, …; a worker that falls behind keeps its
// grid, so the wait shows up as latency instead of silently thinning
// the load.
func OpenLoop(b Backend, opts OpenLoopOptions) Result {
	opts.fill()
	workload := opts.Workload()
	run := newTally()
	phases := make([]*tally, len(opts.Windows))
	for i := range phases {
		phases[i] = newTally()
	}
	interval := time.Duration(float64(time.Second) * float64(opts.Workers) / opts.Rate)
	start := time.Now()
	deadline := start.Add(opts.Duration)
	elapsed := drive(opts.Workers, func(w int) {
		s := NewSampler(workload, opts.Seed, w)
		offset := time.Duration(float64(time.Second) * float64(w) / opts.Rate)
		for sched := start.Add(offset); sched.Before(deadline); sched = sched.Add(interval) {
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
			var phase *tally
			if len(phases) > 0 {
				phase = phases[windowIndex(opts.Windows, sched.Sub(start))]
			}
			request(b, w, s, opts.MessageBytes, sched, run, phase)
		}
	})
	res := run.result(elapsed)
	for i, win := range opts.Windows {
		res.Phases = append(res.Phases, Phase{Name: win.Name, Gated: win.Gated, Result: phases[i].result(0)})
	}
	return res
}
