package postal

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// SpanCarrier is implemented by backends whose workers can carry a
// trace span (mailbench's load harness, MailboatBackend); the
// open-loop runner uses it to hang the store's stage spans off a
// per-request root, so one request renders as a full nested timeline.
type SpanCarrier interface {
	SetWorkerSpan(worker int, sp *trace.Span)
}

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

// PhaseLatency is one window's slice of an open-loop run.
type PhaseLatency struct {
	Name     string
	Gated    bool
	Requests int
	Errors   int
	Deliver  LatencySummary
	Pickup   LatencySummary
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
	// Tracer, when non-nil and the backend is a SpanCarrier, opens a
	// root span per request so the per-stage histograms fill.
	Tracer *trace.Tracer
	// Windows, when non-empty, cuts the run into labeled phases with
	// per-phase latency accounting (OpenLoopResult.Phases).
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

// OpenLoopResult summarizes an open-loop run. Latency quantiles are
// measured from each request's scheduled start (coordinated-omission
// free); Stages carries the per-stage breakdown from the tracer's
// histograms when tracing was on, Phases the per-window slices when
// the run declared phase windows.
type OpenLoopResult struct {
	OfferedRate float64
	Requests    int
	Delivers    int
	Pickups     int
	Errors      int
	Elapsed     time.Duration
	Throughput  float64
	Deliver     LatencySummary
	Pickup      LatencySummary

	Stages []trace.StageSummary
	Phases []PhaseLatency
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
// returns coordinated-omission-free latencies. Worker w owns schedule
// slots w, w+Workers, w+2·Workers, …; a worker that falls behind keeps
// its grid, so the wait shows up as latency instead of silently
// thinning the load.
func OpenLoop(b Backend, opts OpenLoopOptions) OpenLoopResult {
	opts.fill()
	carrier, _ := b.(SpanCarrier)
	traced := opts.Tracer != nil && carrier != nil
	workload := opts.Workload()

	var delivers, pickups, errs atomic.Int64
	deliverLat := obs.NewHistogram(obs.DefLatencyBuckets)
	pickupLat := obs.NewHistogram(obs.DefLatencyBuckets)

	// Per-phase accounting, allocated up front so workers never
	// contend on anything but the lock-free histograms themselves.
	nw := len(opts.Windows)
	phDeliver := make([]*obs.Histogram, nw)
	phPickup := make([]*obs.Histogram, nw)
	phReqs := make([]atomic.Int64, nw)
	phErrs := make([]atomic.Int64, nw)
	for i := 0; i < nw; i++ {
		phDeliver[i] = obs.NewHistogram(obs.DefLatencyBuckets)
		phPickup[i] = obs.NewHistogram(obs.DefLatencyBuckets)
	}

	interval := time.Duration(float64(time.Second) * float64(opts.Workers) / opts.Rate)
	start := time.Now()
	deadline := start.Add(opts.Duration)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sampler := NewSampler(workload, opts.Seed, w)
			rng := sampler.Rng()
			offset := time.Duration(float64(time.Second) * float64(w) / opts.Rate)
			for sched := start.Add(offset); sched.Before(deadline); sched = sched.Add(interval) {
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				ph := -1
				if nw > 0 {
					ph = windowIndex(opts.Windows, sched.Sub(start))
					phReqs[ph].Add(1)
				}
				isDeliver := sampler.NextIsDeliver()
				user := sampler.NextUser()
				if isDeliver {
					msg := Compose(rng, opts.MessageBytes)
					var root *trace.Span
					if traced {
						root = opts.Tracer.Start("deliver", "bench.deliver")
						carrier.SetWorkerSpan(w, root)
					}
					err := b.Deliver(w, user, msg)
					if traced {
						carrier.SetWorkerSpan(w, nil)
						root.End()
					}
					// Latency from the scheduled start: queueing behind
					// a backlog is the store's problem, not the clock's.
					lat := time.Since(sched).Seconds()
					deliverLat.Observe(lat)
					if ph >= 0 {
						phDeliver[ph].Observe(lat)
					}
					if err != nil {
						errs.Add(1)
						if ph >= 0 {
							phErrs[ph].Add(1)
						}
					} else {
						delivers.Add(1)
					}
				} else {
					var root *trace.Span
					if traced {
						root = opts.Tracer.Start("pickup", "bench.pickup")
						carrier.SetWorkerSpan(w, root)
					}
					msgs, err := b.Pickup(w, user)
					if err == nil {
						for _, m := range msgs {
							if !Verify(m.Contents) {
								errs.Add(1)
							}
							if err := b.Delete(w, user, m.ID); err != nil {
								errs.Add(1)
							}
						}
						b.Unlock(w, user)
					}
					if traced {
						carrier.SetWorkerSpan(w, nil)
						root.End()
					}
					lat := time.Since(sched).Seconds()
					pickupLat.Observe(lat)
					if ph >= 0 {
						phPickup[ph].Observe(lat)
					}
					if err != nil {
						errs.Add(1)
						if ph >= 0 {
							phErrs[ph].Add(1)
						}
					} else {
						pickups.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := OpenLoopResult{
		OfferedRate: opts.Rate,
		Requests:    int(delivers.Load() + pickups.Load() + errs.Load()),
		Delivers:    int(delivers.Load()),
		Pickups:     int(pickups.Load()),
		Errors:      int(errs.Load()),
		Elapsed:     elapsed,
		Throughput:  float64(delivers.Load()+pickups.Load()) / elapsed.Seconds(),
		Deliver:     summarize(deliverLat),
		Pickup:      summarize(pickupLat),
	}
	if traced && opts.Tracer.Stages != nil {
		res.Stages = opts.Tracer.Stages.Summaries()
	}
	for i := 0; i < nw; i++ {
		res.Phases = append(res.Phases, PhaseLatency{
			Name:     opts.Windows[i].Name,
			Gated:    opts.Windows[i].Gated,
			Requests: int(phReqs[i].Load()),
			Errors:   int(phErrs[i].Load()),
			Deliver:  summarize(phDeliver[i]),
			Pickup:   summarize(phPickup[i]),
		})
	}
	return res
}
