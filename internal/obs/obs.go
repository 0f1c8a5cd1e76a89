// Package obs is the observability layer: dependency-free (standard
// library only), lock-free metric primitives — counters, gauges, and
// fixed-bucket latency histograms — plus a registry that renders them
// in the Prometheus text exposition format.
//
// The package exists because the paper's evaluation (§9, Figure 11,
// Table 3) is about *measuring* the running system and the checker, and
// a reproduction that cannot see where time goes cannot honor the
// ROADMAP's "fast as the hardware allows" goal. Every primitive is safe
// under heavy concurrency and never takes a lock on the observation
// path: counters and gauges are single atomic adds, and a histogram
// observation is one atomic bucket increment plus a CAS loop on the
// float sum. Registration (rare) takes a mutex; observation (hot) never
// does.
//
// All metric methods are nil-receiver-safe: a nil *Counter, *Gauge, or
// *Histogram ignores observations and reads as zero, so instrumented
// code needs no "is observability enabled?" branches.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns an unregistered counter (tests, ad-hoc use);
// production code normally obtains counters from a Registry.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram in the Prometheus style:
// cumulative le-bounded buckets, a running sum, and a total count. The
// bucket layout is fixed at construction, so observations are lock-free
// and concurrent observers never contend beyond cache-line traffic on
// the touched bucket.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
	total   atomic.Uint64
}

// DefLatencyBuckets spans sub-microsecond (RAM-backed file-system calls)
// through tens of seconds, roughly 2.5×/2×/2× per step like the
// Prometheus defaults but extended downward for in-memory operations.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// DepthBuckets suits small positive integer distributions such as the
// model checker's choice-point depths: powers of two up to 64 Ki.
var DepthBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536,
}

// NewHistogram returns an unregistered histogram over the given sorted
// upper bounds (a +Inf overflow bucket is implicit).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64{}, bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound admits v (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the Prometheus
// convention for latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Start returns the time to hand ObserveSince later: now, or the zero
// time on a nil histogram, so code timed only for a metric reads no
// clock while metrics are off.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed time since start. A zero start (what
// Start returns on a nil histogram) is ignored.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.ObserveDuration(time.Since(start))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket, like PromQL's histogram_quantile. Values
// in the overflow bucket report the largest finite bound. Returns 0 with
// no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Merge adds other's observations into h. The bucket layouts must
// match; merging is how per-worker histograms aggregate after a
// parallel phase (the sum merge is approximate only in float rounding).
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	if len(h.bounds) != len(other.bounds) {
		panic("obs: merging histograms with different bucket layouts")
	}
	for i := range h.counts {
		h.counts[i].Add(other.counts[i].Load())
	}
	h.total.Add(other.total.Load())
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + other.Sum())
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Snapshot returns the bucket upper bounds and their non-cumulative
// counts (the final entry is the +Inf overflow bucket).
func (h *Histogram) Snapshot() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64{}, h.bounds...)
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}
