package explore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestProgressDeterminism is the acceptance check for -progress:
// reports and counterexamples must be identical with and without
// telemetry, because the sampler only reads counters the search
// maintains unconditionally: the whole report line and the minimized
// counterexample are compared.
func TestProgressDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *Scenario
	}{
		{"clean", func() *Scenario { return scenario(true, true) }},
		{"buggy", func() *Scenario {
			s := scenario(true, true)
			s.Recover = func(t *machine.T, wAny any) {} // broken recovery
			return s
		}},
	} {
		run := func(progress bool) (string, int) {
			opts := Options{MaxExecutions: 5000}
			var snaps int
			var mu sync.Mutex
			if progress {
				opts.Progress = &ProgressOptions{
					Every: time.Millisecond,
					Sink: func(s Snapshot) {
						mu.Lock()
						snaps++
						mu.Unlock()
					},
				}
			}
			rep := Run(tc.mk(), opts)
			out := rep.String()
			if rep.Counterexample != nil {
				// Minimize keeps the comparison readable on failure.
				out += "\n" + fmt.Sprint(Minimize(tc.mk(), rep.Counterexample.Choices))
			}
			return out, snaps
		}
		plain, _ := run(false)
		traced, snaps := run(true)
		if plain != traced {
			t.Errorf("%s: report changed under -progress:\nwithout: %s\nwith:    %s", tc.name, plain, traced)
		}
		if snaps == 0 {
			t.Errorf("%s: no snapshots emitted (final snapshot missing)", tc.name)
		}
	}
}

// TestProgressSnapshotContents checks the snapshot fields fill in and
// the final snapshot closes the stream.
func TestProgressSnapshotContents(t *testing.T) {
	var mu sync.Mutex
	var snaps []Snapshot
	rep := Run(scenario(true, true), Options{
		MaxExecutions: 5000,
		Progress: &ProgressOptions{
			Every: time.Millisecond,
			Sink: func(s Snapshot) {
				mu.Lock()
				snaps = append(snaps, s)
				mu.Unlock()
			},
		},
	})
	if !rep.OK() || !rep.Complete {
		t.Fatalf("scenario should pass completely: %s", rep)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Errorf("last snapshot not final: %+v", last)
	}
	for i, s := range snaps[:len(snaps)-1] {
		if s.Final {
			t.Errorf("snapshot %d marked final before the end", i)
		}
	}
	if last.Scenario == "" {
		t.Errorf("scenario name missing: %+v", last)
	}
	if last.Phase != "systematic" {
		t.Errorf("phase: %q", last.Phase)
	}
	if last.Executions != int64(rep.Executions) {
		t.Errorf("final snapshot executions %d, report says %d", last.Executions, rep.Executions)
	}
	if int64(rep.Stats.PrunedStates) != last.Pruned {
		t.Errorf("final snapshot pruned %d, report says %d", last.Pruned, rep.Stats.PrunedStates)
	}
	if last.DepthP99 <= 0 {
		t.Errorf("depth quantiles empty: %+v", last)
	}
	// The one-line rendering carries the load-bearing numbers.
	line := last.String()
	for _, want := range []string{"systematic", "execs", "depth", "[final]"} {
		if !strings.Contains(line, want) {
			t.Errorf("snapshot line missing %q: %s", want, line)
		}
	}
}
