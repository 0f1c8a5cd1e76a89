package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1) // 1..n, already sorted
	}
	return s
}

func TestQuantileIsAnExactOrderStatistic(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	// Always one of the samples, never interpolated.
	if got := quantile([]int64{10, 1000}, 0.5); got != 10 {
		t.Errorf("median of {10,1000} = %d, want the sample 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
	unsorted := []int64{5, 1, 4}
	if got := sortedCopy(unsorted); got[0] != 1 || unsorted[0] != 5 {
		t.Errorf("sortedCopy = %v and left the input as %v", got, unsorted)
	}
}

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{19, 0, 0, false},      // median of 19 has 9 beyond
		{20, 0.50, 10, true},   // exactly ten beyond the median
		{99, 0.50, 49, true},   // p90 of 99 is rank 90: 9 beyond
		{100, 0.90, 10, true},  // p90 of 100: ten beyond
		{1000, 0.99, 10, true}, // p99 of 1000: ten beyond; p99.9 has one
		{100000, 0.9999, 10, true},
	} {
		p, v, beyond, ok := topPercentile(seq(c.n))
		if ok != c.ok || p != c.p || beyond != c.beyond {
			t.Errorf("topPercentile(n=%d) = p%v beyond %d ok %v, want p%v beyond %d ok %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
		if ok && v != int64(c.n-c.beyond) {
			t.Errorf("topPercentile(n=%d) value %d is not the sample at its rank", c.n, v)
		}
	}
}

func TestMidMeanIgnoresOutliersAndDoesNotJumpBetweenTwoGroups(t *testing.T) {
	if got := midMean([]float64{1, 2, 3, 4, 5, 6, 7, 1000}); got != 4.5 {
		t.Errorf("midMean with an outlier = %v, want 4.5 (the middle four)", got)
	}
	// Six samples near 100 and six near 130: one sample changing group
	// moves the median by 15, the mid-mean by 5.
	a := []float64{100, 100, 100, 100, 100, 100, 130, 130, 130, 130, 130, 130}
	b := []float64{100, 100, 100, 100, 100, 130, 130, 130, 130, 130, 130, 130}
	if d := midMean(b) - midMean(a); d != 5 {
		t.Errorf("mid-mean moved by %v, want 5", d)
	}
	if d := medianFloat(b) - medianFloat(a); d != 15 {
		t.Errorf("median moved by %v, want 15", d)
	}
	if midMean(nil) != 0 || midMean([]float64{7}) != 7 {
		t.Error("midMean of no samples or one")
	}
}

func TestThroughputIsTheMedianNormalisedSlice(t *testing.T) {
	sec := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Second
		}
		return d
	}
	// One slice hit by a noisy neighbour does not move the figure.
	p := &phase{slices: []int64{1000, 1010, 10, 990, 1005}, elapsed: sec(5)}
	if got := p.throughput(); got != 1000 {
		t.Errorf("median of 1 s slices = %v, want 1000", got)
	}
	// A slice's rate is over its real length, not its nominal width.
	p = &phase{slices: []int64{500, 520}, elapsed: []time.Duration{500 * time.Millisecond, 500 * time.Millisecond}}
	if got := p.throughput(); got != 1020 {
		t.Errorf("median of two half-second slices = %v req/s, want 1020", got)
	}
	// A slice that ran while the host was a quarter faster than the
	// reference (scale 1.25: its times are stretched) did a quarter
	// more than it would have at the reference speed.
	p = &phase{slices: []int64{1250, 1000, 800}, elapsed: sec(3), scale: []float64{1.25, 1, 0.8}}
	if got := p.throughput(); got != 1000 {
		t.Errorf("three slices of one program at three host speeds = %v req/s, want 1000", got)
	}
	if got := p.rawThroughput(); math.Abs(got-3050.0/3) > 1e-9 {
		t.Errorf("raw throughput = %v, want %v", got, 3050.0/3)
	}
	if got := (&phase{}).throughput(); got != 0 {
		t.Errorf("no slices = %v, want 0", got)
	}
}
