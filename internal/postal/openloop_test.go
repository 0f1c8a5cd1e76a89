package postal

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mailboat"
)

// TestOpenLoopUntraced drives the open-loop runner against the
// verified library and checks the coordinated-omission-free
// accounting: the schedule is held no matter how slow the store is,
// and both ops record latencies.
func TestOpenLoopUntraced(t *testing.T) {
	b, err := NewMailboatBackend(t.TempDir(), 10, 2, 1, true /* noFsync: speed */)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res := OpenLoop(b, OpenLoopOptions{Workers: 2, Users: 10, Rate: 400, Duration: 500 * time.Millisecond, Seed: 1})
	if res.Delivers == 0 || res.Pickups == 0 || res.Errors != 0 {
		t.Fatalf("want both ops and no errors: %+v", res)
	}
	// With rate R over duration D the runner issues close to R·D
	// requests.
	want := int(400 * 0.5)
	if res.Requests < want*8/10 || res.Requests > want*12/10 {
		t.Errorf("issued %d requests, want about %d (open loop must hold its schedule)", res.Requests, want)
	}
	if res.Deliver.Count == 0 || res.Deliver.P99 <= 0 {
		t.Errorf("deliver latency summary empty: %+v", res.Deliver)
	}
}

// rottenBackend serves one message whose hash fails and refuses every
// delete: each pickup session it serves is an error twice over.
type rottenBackend struct{}

func (rottenBackend) Deliver(int, uint64, []byte) error { return nil }
func (rottenBackend) Pickup(int, uint64) ([]mailboat.Message, error) {
	return []mailboat.Message{{ID: "m", Contents: "X-Hash: 0000000000000000\nrotten\n"}}, nil
}
func (rottenBackend) Delete(int, uint64, string) error { return errors.New("delete refused") }
func (rottenBackend) Unlock(int, uint64)               {}

// TestOpenLoopCountsEachRequestOnce: a pickup session that serves a
// bad hash and fails its delete is one request and one error, in the
// run's tally and in its phase's.
func TestOpenLoopCountsEachRequestOnce(t *testing.T) {
	res := OpenLoop(rottenBackend{}, OpenLoopOptions{
		Workers:  2,
		Rate:     400,
		Duration: 300 * time.Millisecond,
		Seed:     5,
		Windows: []PhaseWindow{
			{Name: "steady-0", End: 150 * time.Millisecond, Gated: true},
			{Name: "steady-1", Start: 150 * time.Millisecond, Gated: true},
		},
	})
	if res.Errors == 0 || res.Delivers == 0 {
		t.Fatalf("want rotten sessions and clean deliveries: %+v", res)
	}
	if res.Requests != res.Delivers+res.Pickups+res.Errors {
		t.Errorf("%d requests != %d delivers + %d pickups + %d errors", res.Requests, res.Delivers, res.Pickups, res.Errors)
	}
	reqs, errs := 0, 0
	for _, p := range res.Phases {
		reqs += p.Requests
		errs += p.Errors
	}
	if reqs != res.Requests || errs != res.Errors {
		t.Errorf("phases count %d requests, %d errors; the run %d, %d", reqs, errs, res.Requests, res.Errors)
	}
	if res.BadHashes != res.Messages || res.Messages != res.Errors {
		t.Errorf("every session serves one rotten message: %d messages, %d bad, %d errors", res.Messages, res.BadHashes, res.Errors)
	}
}

// TestOpenLoopPhaseWindows: a windowed run buckets every request into
// the phase containing its scheduled start, and the per-phase counts
// add back up to the run total.
func TestOpenLoopPhaseWindows(t *testing.T) {
	b, err := NewMailboatBackend(t.TempDir(), 8, 2, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	windows := []PhaseWindow{
		{Name: "steady-0", Start: 0, End: 200 * time.Millisecond, Gated: true},
		{Name: "drill", Start: 200 * time.Millisecond, End: 400 * time.Millisecond},
		{Name: "steady-1", Start: 400 * time.Millisecond, Gated: true},
	}
	res := OpenLoop(b, OpenLoopOptions{
		Workers:  2,
		Users:    8,
		Skew:     SkewZipf,
		Rate:     400,
		Duration: 600 * time.Millisecond,
		Seed:     4,
		Windows:  windows,
	})
	if len(res.Phases) != 3 {
		t.Fatalf("want 3 phases, got %+v", res.Phases)
	}
	total := 0
	for i, p := range res.Phases {
		if p.Name != windows[i].Name || p.Gated != windows[i].Gated {
			t.Errorf("phase %d mislabeled: %+v vs window %+v", i, p, windows[i])
		}
		if p.Requests == 0 {
			t.Errorf("phase %q saw no requests", p.Name)
		}
		if int(p.Deliver.Count+p.Pickup.Count) != p.Requests {
			t.Errorf("phase %q: %d deliver + %d pickup observations != %d requests",
				p.Name, p.Deliver.Count, p.Pickup.Count, p.Requests)
		}
		total += p.Requests
	}
	if total != res.Requests {
		t.Errorf("phases bucket %d requests, run saw %d", total, res.Requests)
	}
}

func TestEvaluatePhaseGates(t *testing.T) {
	phase := func(name string, gated bool, p99 float64) Phase {
		return Phase{Name: name, Gated: gated, Result: Result{
			Deliver: LatencySummary{Count: 10, P99: p99}, Pickup: LatencySummary{Count: 10, P99: p99}}}
	}
	phases := []Phase{
		phase("steady-0", true, 0.01),
		// The drill phase blows the deliver gate but is not gated.
		phase("crash", false, 3.0),
		phase("steady-1", true, 0.02),
	}
	rs, pass := EvaluatePhaseGates(DefaultGates(), phases)
	if !pass {
		t.Errorf("steady phases within bounds must pass (drill phases are not gated): %+v", rs)
	}
	if len(rs) != 4 {
		t.Errorf("want 2 gates x 2 gated phases = 4 results, got %d", len(rs))
	}

	phases[2].Deliver.P99 = 1.0
	rs, pass = EvaluatePhaseGates(DefaultGates(), phases)
	if pass {
		t.Errorf("a gated steady phase over its bound must fail the run: %+v", rs)
	}
}

func TestEvaluateGates(t *testing.T) {
	res := Result{
		Deliver: LatencySummary{Count: 10, P50: 0.001, P90: 0.002, P99: 0.004},
		Pickup:  LatencySummary{Count: 10, P50: 0.002, P90: 0.004, P99: 0.300},
	}

	results, pass := EvaluateGates(DefaultGates(), res)
	if len(results) != 2 {
		t.Fatalf("want 2 gate results, got %d", len(results))
	}
	if !results[0].Pass {
		t.Errorf("deliver gate should pass: %+v", results[0])
	}
	if results[1].Pass || pass {
		t.Errorf("pickup p99 0.3s must fail its 0.2s gate: %+v (all=%v)", results[1], pass)
	}

	// A misdeclared gate fails loudly instead of silently passing.
	bad, all := EvaluateGates([]Gate{{Op: "frobnicate", Quantile: 0.99, MaxSeconds: 1}}, res)
	if all || bad[0].Pass || bad[0].ObservedSeconds != -1 {
		t.Errorf("unknown op gate must fail: %+v", bad[0])
	}
	badQ, allQ := EvaluateGates([]Gate{{Op: "deliver", Quantile: 0.42, MaxSeconds: 1}}, res)
	if allQ || badQ[0].Pass {
		t.Errorf("unknown quantile gate must fail: %+v", badQ[0])
	}
}
