package main

import (
	"math"
	"sort"
	"time"
)

// This file is the benchmark's arithmetic: exact order statistics over
// raw samples (no histogram buckets, no interpolation — the 30 %
// run-to-run jumps the issue measured on bench.deliver came from
// bucket-interpolated quantiles), the "highest percentile the sample
// supports" rule of the choosing-metrics guide, and medians
// (slice-median throughput is phase.throughput, in loop.go).

// sortedCopy returns the samples in ascending order without disturbing
// the caller's slice (sample order is completion order, which the
// slice-throughput code still needs).
func sortedCopy(samples []int64) []int64 {
	out := append([]int64(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the exact q-quantile of sorted by the nearest-rank
// rule: the smallest sample such that at least q·n samples are at or
// below it. It is always one of the samples. Empty input yields 0.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rankOf(n, q)-1]
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	// The epsilon keeps 0.99·100 = 98.99999999999999 from rounding up
	// to rank 100.
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentileLadder is the set of percentiles topPercentile chooses
// from: the median and then one more nine at a time.
var percentileLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999, 0.99999}

// minBeyond is how many samples must lie strictly beyond a percentile
// for it to be reported (choosing-metrics §1).
const minBeyond = 10

// topPercentile returns the highest ladder percentile that still has
// at least minBeyond samples beyond it, its value, and that count. With
// fewer than 2·minBeyond samples even the median is unsupported and ok
// is false.
func topPercentile(sorted []int64) (p float64, v int64, beyond int, ok bool) {
	n := len(sorted)
	for _, q := range percentileLadder {
		r := rankOf(n, q)
		if n-r < minBeyond {
			break
		}
		p, v, beyond, ok = q, sorted[r-1], n-r, true
	}
	return p, v, beyond, ok
}

// medianFloat returns the median of xs (mean of the middle pair for an
// even count); 0 for no samples.
func medianFloat(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the interquartile mean: the mean of the samples left when
// the lowest and the highest quarter (rounded down) are set aside. Like
// the median it ignores outliers; unlike the median it does not jump
// when the samples fall into two groups and one of them crosses from
// one to the other — conviction rounds do, with and without a garbage
// collection inside them.
func midMean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[n/4 : n-n/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// medianDuration is medianFloat over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return medianFloat(xs)
}

// usOf converts nanoseconds to microseconds, keeping the fraction.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }
