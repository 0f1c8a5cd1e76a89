package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkFile, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f, raw
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	f, raw := readBenchmarkJSON(t)
	// The committed file is exactly what `bench --describe` prints.
	if strings.TrimSpace(string(raw)) != benchmarkJSON() {
		t.Error("BENCHMARK.json differs from `go run ./bench --describe`; regenerate it")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
	if len(f.Workloads) != 4 || len(f.EndToEnd) != 10 || len(f.PerLayer) != 115 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(f.Workloads), len(f.EndToEnd), len(f.PerLayer))
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is outside the contract's alphabet", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range f.Workloads {
		check("workload", w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		check("end-to-end", m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range f.PerLayer {
		check("per-layer", m.Name, m.Unit)
	}
}

func keysOf(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestSmoke runs every workload, traced, at smoke sizes, and checks
// what it emits against BENCHMARK.json: the same workload and metric
// names, every value finite, every output verified.
func TestSmoke(t *testing.T) {
	f, _ := readBenchmarkJSON(t)
	var wantE2E, wantLayer []string
	for _, m := range f.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range f.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	out := t.TempDir()
	for _, w := range f.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			if !isWorkload(w.Name) {
				t.Fatalf("BENCHMARK.json names workload %q, which bench does not have", w.Name)
			}
			o := &options{workload: w.Name, seed: 3, seconds: 1, traced: true, smoke: true, out: out}
			r := runWorkload(o, w.Name, "", io.Discard)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d, problems %v", r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			e2e := keysOf(r.EndToEnd)
			// ops_failed_ratio is printed but is not a BENCHMARK.json
			// metric (it is 0; see metrics.go).
			if i := sort.SearchStrings(e2e, opsFailedRatio); i < len(e2e) && e2e[i] == opsFailedRatio {
				e2e = append(e2e[:i], e2e[i+1:]...)
			} else {
				t.Error("ops_failed_ratio was not reported")
			}
			if strings.Join(e2e, " ") != strings.Join(wantE2E, " ") {
				t.Errorf("end-to-end metrics\n got %v\nwant %v", e2e, wantE2E)
			}
			if got := keysOf(r.PerLayer); strings.Join(got, " ") != strings.Join(wantLayer, " ") {
				t.Errorf("per-layer metrics\n got %v\nwant %v", got, wantLayer)
			}
			for _, set := range []map[string]metric{r.EndToEnd, r.PerLayer} {
				for name, m := range set {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
			}
			for _, d := range endToEnd {
				if r.EndToEnd[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; the driver needs it never 0", d.Name, r.EndToEnd[d.Name].Value)
				}
			}
			// The driver's line: exactly four keys, and the metric set
			// of the mode.
			for _, traced := range []bool{false, true} {
				var line struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(bytes.NewReader([]byte(contractLine(r, traced))))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("contract line: %v", err)
				}
				want := wantE2E
				if traced {
					want = wantLayer
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
					t.Errorf("contract line (traced %v) has %d metrics, want %d", traced, len(line.Metrics), len(want))
				}
				for _, name := range want {
					if m, ok := line.Metrics[name]; !ok || m.Value == nil || m.Unit == "" {
						t.Errorf("contract line (traced %v) lacks %s", traced, name)
					}
				}
			}
			// Layer separation: a workload prints nothing for a layer
			// it bypasses.
			zero := func(prefix string) {
				for name, m := range r.PerLayer {
					if strings.HasPrefix(name, prefix) && m.Value != 0 {
						t.Errorf("%s reports %s = %v for a layer it bypasses", w.Name, name, m.Value)
					}
				}
			}
			switch w.Name {
			case wlCheckSuite:
				for _, p := range []string{"smtp.", "pop3.", "mailboatd.", "mailboat.", "gfs.os.", "gfs.observed.", "gfs.mirrored.", "gfs.checksummed.", "gfs.faulty.", "loadgen."} {
					zero(p)
				}
			case wlMailDirect:
				for _, p := range []string{"smtp.", "pop3.", "gfs.observed.", "gfs.mirrored.", "gfs.checksummed.", "gfs.faulty.", "explore.", "machine."} {
					zero(p)
				}
			case wlMailNet:
				for _, p := range []string{"gfs.observed.", "gfs.mirrored.", "gfs.checksummed.", "gfs.faulty.", "explore."} {
					zero(p)
				}
				if r.PerLayer["smtp.round_trips_per_deliver"].Value != 4 {
					t.Errorf("smtp.round_trips_per_deliver = %v, want 4", r.PerLayer["smtp.round_trips_per_deliver"].Value)
				}
			case wlMailVault:
				for _, p := range []string{"smtp.", "pop3.", "explore."} {
					zero(p)
				}
				if v := r.PerLayer["gfs.mirrored.bytes_out_per_byte_in"].Value; v != 2 {
					t.Errorf("gfs.mirrored.bytes_out_per_byte_in = %v, want exactly 2", v)
				}
			}
			if w.Name != wlCheckSuite {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil {
					t.Errorf("no span file: %v", err)
				}
			}
		})
	}
}

func TestFlags(t *testing.T) {
	for _, bad := range [][]string{{"--workload", "nope"}, {"--trace", "2"}, {"--seconds", "0"}, {"stray"}} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("flags %v were accepted", bad)
		}
	}
	o, err := parseFlags([]string{"--workload", "mail-net", "--seed", "9", "--seconds", "10", "--trace", "1"}, io.Discard)
	if err != nil || !o.traced || o.seed != 9 || o.workload != wlMailNet {
		t.Errorf("driver-form flags: %+v, %v", o, err)
	}
}
