package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestAppendBenchRunPreservesUnknownFields pins the forward-compat
// contract of BENCH_mailboat.json: an older binary appending to a file
// written by a newer schema must keep (a) unknown fields inside
// existing run entries, (b) unknown top-level keys, and (c) the
// existing runs verbatim — appending is not an excuse to rewrite
// history.
func TestAppendBenchRunPreservesUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	future := `{
  "schema": "mailboat-bench/v9",
  "runs": [
    {
      "date": "2031-01-01T00:00:00Z",
      "users": 100,
      "quantum_latency": {"p50": 1e-12},
      "partition": {"workers": 2, "acked": 9, "stores_identical": true},
      "hyperdrills": ["warp"]
    }
  ],
  "annotations": {"operator": "future tooling wrote this"}
}`
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := appendBenchRun(path, benchRun{Date: "2026-08-08T00:00:00Z", Users: 7}); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatalf("rewritten file is not valid JSON: %v\n%s", err, b)
	}
	if got := string(top["schema"]); got != `"`+benchSchema+`"` {
		t.Errorf("schema = %s, want %q", got, benchSchema)
	}
	var runs []map[string]json.RawMessage
	if err := json.Unmarshal(top["runs"], &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("want 2 runs, got %d", len(runs))
	}
	// (a) unknown fields inside the pre-existing run survive.
	// "partition" is the block the retired standalone -partition mode
	// wrote; BENCH_mailboat.json still carries two such runs.
	for _, key := range []string{"quantum_latency", "hyperdrills", "partition"} {
		if _, ok := runs[0][key]; !ok {
			t.Errorf("existing run lost unknown field %q:\n%s", key, b)
		}
	}
	// (b) unknown top-level keys survive.
	if _, ok := top["annotations"]; !ok {
		t.Errorf("top-level unknown key \"annotations\" dropped:\n%s", b)
	}
	// (c) the new run landed.
	if got := string(runs[1]["users"]); got != "7" {
		t.Errorf("appended run users = %s, want 7", got)
	}

	// The full round trip is idempotent on the unknowns: append again
	// and everything is still there.
	if err := appendBenchRun(path, benchRun{Date: "2026-08-08T00:00:01Z", Users: 8}); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(path)
	for _, want := range []string{"quantum_latency", "hyperdrills", "annotations", "warp"} {
		if !strings.Contains(string(b2), want) {
			t.Errorf("second append dropped %q:\n%s", want, b2)
		}
	}
}

// TestAppendBenchRunFresh: a missing file is created with the current
// schema and one run.
func TestAppendBenchRunFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := appendBenchRun(path, benchRun{Date: "2026-08-08T00:00:00Z", Users: 3}); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Schema string `json:"schema"`
		Runs   []benchRun
	}
	b, _ := os.ReadFile(path)
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != benchSchema || len(f.Runs) != 1 || f.Runs[0].Users != 3 {
		t.Errorf("fresh file wrong: %+v", f)
	}
}

// TestAppendBenchRunRejectsCorrupt: a corrupt history is an error, not
// clobbered.
func TestAppendBenchRunRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendBenchRun(path, benchRun{}); err == nil {
		t.Fatal("corrupt file must be an error")
	}
	b, _ := os.ReadFile(path)
	if string(b) != "{truncated" {
		t.Errorf("corrupt file was rewritten: %q", b)
	}
}

// TestDrillSchedule pins the deterministic drill placement: n drills
// at (i+1)·D/(n+1), alternating gated steady windows and ungated drill
// windows, duplicate names disambiguated.
func TestDrillSchedule(t *testing.T) {
	windows, times := drillSchedule([]string{"crash", "crash", "partition"}, 8*time.Second)
	if len(times) != 3 || times[0] != 2*time.Second || times[1] != 4*time.Second || times[2] != 6*time.Second {
		t.Errorf("drill times wrong: %v", times)
	}
	if len(windows) != 7 {
		t.Fatalf("want 7 windows (4 steady + 3 drill), got %v", windows)
	}
	var names []string
	for _, w := range windows {
		names = append(names, w.Name)
		if strings.HasPrefix(w.Name, "steady") != w.Gated {
			t.Errorf("window %+v: only steady windows are gated", w)
		}
	}
	want := "steady-0 crash steady-1 crash#2 steady-2 partition steady-3"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("window names %q, want %q", got, want)
	}
	if windows[6].End != 0 {
		t.Errorf("last window must run to the end of the run: %+v", windows[6])
	}

	if w, ts := drillSchedule(nil, time.Second); w != nil || ts != nil {
		t.Errorf("no drills must mean no windows: %v %v", w, ts)
	}
}

// TestDeploymentFor pins the drill→deployment matrix and its rejected
// combinations (mirroring mailboatd.Options' exclusivity rules).
func TestDeploymentFor(t *testing.T) {
	cases := []struct {
		drills []string
		want   string
		ok     bool
	}{
		{nil, "plain", true},
		{[]string{"crash"}, "plain", true},
		{[]string{"fault", "crash"}, "plain", true},
		{[]string{"corrupt", "crash"}, "mirror+checksum", true},
		{[]string{"partition", "crash"}, "replicated", true},
		{[]string{"partition", "corrupt"}, "", false},
		{[]string{"partition", "fault"}, "", false},
		{[]string{"corrupt", "fault"}, "", false},
		{[]string{"meteor"}, "", false},
	}
	for _, c := range cases {
		got, err := deploymentFor(c.drills)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("deploymentFor(%v) = %q, %v; want %q", c.drills, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("deploymentFor(%v) must fail", c.drills)
		}
	}
}

// TestGateDrillRegressions pins the drill-duration gate: ≥3 prior
// samples of the same drill (same deployment, same population) set a
// median baseline, and a current duration over 2x it is a regression.
// Mismatched deployments/populations, failed prior drills, and thin
// history contribute nothing.
func TestGateDrillRegressions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	hist := func(dep string, users uint64, name string, durs ...float64) {
		for _, d := range durs {
			run := benchRun{Deployment: dep, Users: users,
				Drills: []drillRecord{{Name: name, DurSec: d, OK: true}}}
			if err := appendBenchRun(path, run); err != nil {
				t.Fatal(err)
			}
		}
	}
	hist("plain", 200, "crash", 0.10, 0.12, 0.11)
	hist("plain", 200, "diskfull", 0.30, 0.30, 0.34)
	// Noise that must not count: other deployment, other population,
	// and a failed drill with an absurd duration.
	hist("replicated", 200, "crash", 9, 9, 9)
	hist("plain", 5000, "crash", 9, 9, 9)
	if err := appendBenchRun(path, benchRun{Deployment: "plain", Users: 200,
		Drills: []drillRecord{{Name: "crash", DurSec: 50, OK: false}}}); err != nil {
		t.Fatal(err)
	}

	cur := benchRun{Deployment: "plain", Users: 200, Drills: []drillRecord{
		{Name: "crash", DurSec: 0.20, OK: true},    // under 2x the 0.11 median
		{Name: "diskfull", DurSec: 0.70, OK: true}, // over 2x the 0.30 median
		{Name: "partition", DurSec: 9, OK: true},   // no history at all
	}}
	regs := gateDrillRegressions(path, cur)
	if len(regs) != 1 || !strings.Contains(regs[0], "diskfull") {
		t.Fatalf("regressions = %v, want exactly the diskfull one", regs)
	}

	// Two samples are not a baseline.
	thin := filepath.Join(t.TempDir(), "thin.json")
	hist2 := benchRun{Deployment: "plain", Users: 200,
		Drills: []drillRecord{{Name: "crash", DurSec: 0.1, OK: true}}}
	path2 := thin
	for i := 0; i < 2; i++ {
		if err := appendBenchRun(path2, hist2); err != nil {
			t.Fatal(err)
		}
	}
	if regs := gateDrillRegressions(path2, cur); len(regs) != 0 {
		t.Fatalf("thin history gated: %v", regs)
	}

	// No file at all gates nothing.
	if regs := gateDrillRegressions(filepath.Join(t.TempDir(), "none.json"), cur); regs != nil {
		t.Fatalf("missing history gated: %v", regs)
	}
}
