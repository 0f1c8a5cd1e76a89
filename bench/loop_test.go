package main

import (
	"testing"
	"time"

	"repro/internal/mailboat"
)

func TestLatencyFromDueOnlyWhenTheConnectionWasBusy(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Free before the due time, sent 2 ms late by the timer: latency
	// runs from the actual send and the 2 ms are the generator's.
	from, late, wasFree := latencyFrom(at(10), at(4), at(12))
	if !wasFree || from != at(12) || late != 2*time.Millisecond {
		t.Errorf("free connection: from +%v late %v free %v", from.Sub(t0), late, wasFree)
	}
	// Still busy when the request fell due (freed at 25, sent at 25):
	// latency runs from the due time, so the stall is charged.
	from, late, wasFree = latencyFrom(at(10), at(25), at(25))
	if wasFree || from != at(10) || late != 0 {
		t.Errorf("busy connection: from +%v late %v free %v", from.Sub(t0), late, wasFree)
	}
}

// stallClient answers at once, except that its nth delivery takes
// `stall`.
type stallClient struct {
	n, calls int
	stall    time.Duration
}

func (c *stallClient) Deliver(uint64, int) error {
	c.calls++
	if c.calls == c.n {
		time.Sleep(c.stall)
	}
	return nil
}
func (c *stallClient) Pickup(uint64) ([]mailboat.Message, error) { return nil, nil }
func (c *stallClient) Delete(uint64, string) error               { return nil }
func (c *stallClient) Unlock(uint64) error                       { return nil }

func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	// One connection, a request every 5 ms, the 4th stalls 40 ms: the
	// requests that fell due during the stall must report latencies
	// near 35, 30, 25 ... ms (timed from their due times), although
	// each was served in microseconds once sent.
	pool := newMsgPool(1, 1)
	gen := newOpGen(mailSpecOf(wlMailDirect, newSizes(1, true)).workload(), opMix{deliver: 1}, pool, 1, 0)
	c := &stallClient{n: 4, stall: 40 * time.Millisecond}
	stats := openLoop([]mailClient{c}, []*opGen{gen}, &mailEnv{pool: pool},
		openStep{rate: 200, measure: 120 * time.Millisecond})
	p := mergeStats(stats)
	lat := p.lat[opDeliver]
	if len(lat) < 20 {
		t.Fatalf("only %d of ~24 requests were sent: the generator did not catch up after the stall", len(lat))
	}
	var charged int
	for _, l := range lat {
		if d := time.Duration(l); d > 3*time.Millisecond && d < 39*time.Millisecond {
			charged++
		}
	}
	if charged < 5 {
		t.Errorf("%d requests were charged queueing delay behind a 40 ms stall at 5 ms spacing, want at least 5 (latencies %v)", charged, lat)
	}
	if p.backlogMax < 5 {
		t.Errorf("backlog peaked at %d, want at least 5", p.backlogMax)
	}
	if p.backlogGrowing() {
		t.Errorf("a stall that cleared is reported as a growing backlog: thirds %v", p.backlogPart)
	}
	if len(p.late) == 0 {
		t.Error("no timer-lateness samples although most requests found the connection free")
	}
	if p.failed != 0 || p.attempted != int64(c.calls) {
		t.Errorf("attempted %d failed %d for %d calls", p.attempted, p.failed, c.calls)
	}
}

func TestClosedLoopSlicesAlternateWithTheYardstick(t *testing.T) {
	pool := newMsgPool(1, 1)
	gen := newOpGen(mailSpecOf(wlMailDirect, newSizes(1, true)).workload(), opMix{deliver: 0.5}, pool, 1, 0)
	y, err := newYard(yardBlend{cpuRounds: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	do := func(o op) session { return doOp(noopClient{}, o) }
	p := mergeStats([]*clientStats{closedLoop(do, gen, &mailEnv{pool: pool}, y, 5*time.Millisecond, 4, 10*time.Millisecond, 0)})
	if p.requests() == 0 || p.failed != 0 {
		t.Fatalf("%d requests, %d failed", p.requests(), p.failed)
	}
	var inSlices int64
	for _, c := range p.slices {
		inSlices += c
	}
	// Every measured request belongs to the slice it started in.
	if len(p.slices) != 4 || inSlices != p.requests() {
		t.Errorf("slices %v for %d requests", p.slices, p.requests())
	}
	// One sample before the first slice, one after each.
	if len(y.samples) != 5 || len(p.scale) != 4 || len(p.elapsed) != 4 {
		t.Errorf("%d yardstick samples, %d scales, %d lengths for 4 slices", len(y.samples), len(p.scale), len(p.elapsed))
	}
	// Slices may be counted in requests instead.
	if st := closedLoop(do, gen, &mailEnv{pool: pool}, y, 0, 3, 0, 7); st.slices[0] != 7 || st.slices[2] != 7 || st.attempted != 21 {
		t.Errorf("three slices of seven requests: slices %v, attempted %d", st.slices, st.attempted)
	}
	for k, s := range p.scale {
		want := y.scaleOf(y.samples[k], y.samples[k+1])
		if s != want || s <= 0 {
			t.Errorf("slice %d: scale %v, want %v from the samples around it", k, s, want)
		}
		if p.elapsed[k] < 10*time.Millisecond {
			t.Errorf("slice %d ran %v, under its width", k, p.elapsed[k])
		}
	}
}
