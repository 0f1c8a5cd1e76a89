package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/postal"
	"repro/internal/trace"
)

// benchSchema versions BENCH_mailboat.json so tooling can detect shape
// changes instead of guessing.
//
// Schema evolution (every bump is additive — a vN reader that ignores
// unknown fields parses every vN+1 run, and this writer preserves
// fields it does not know, so histories survive both directions):
//
//	v1  date/revision/go/store/durability/users + "sweep" (Figure 11
//	    points), "openloop" (trace profile), "slo"/"slo_pass".
//	v2  added the optional "partition" field: the results of the
//	    standalone -partition mode (since folded into -drill
//	    partition). This writer no longer emits it; runs that carry
//	    it are preserved like any other field it does not know.
//	v3  the load harness: "skew"/"mix" name the multi-tenant workload
//	    model, "deployment" the store stack it ran against,
//	    "drills" the executed mid-load drill schedule, "audit" the
//	    post-run durability audit, "phase_slo" the per-steady-phase
//	    gate verdicts; "openloop" grows a "phases" array with
//	    per-window latency slices. All new fields are omitempty, so
//	    sweep and trace runs look exactly like v2 wrote them.
const benchSchema = "mailboat-bench/v3"

// benchRun is one dated entry in BENCH_mailboat.json. A sweep run
// carries Sweep; a trace-profile run carries OpenLoop + SLO; a -json
// run carries both; a -load run carries OpenLoop (with phases) +
// Drills + Audit + PhaseSLO.
type benchRun struct {
	Date       string                   `json:"date"`
	Revision   string                   `json:"revision"`
	Go         string                   `json:"go"`
	Store      string                   `json:"store"`
	Durability string                   `json:"durability"`
	Users      uint64                   `json:"users"`
	Skew       string                   `json:"skew,omitempty"`
	Mix        float64                  `json:"mix,omitempty"`
	Deployment string                   `json:"deployment,omitempty"`
	Sweep      []postal.SweepPoint      `json:"sweep,omitempty"`
	OpenLoop   *postal.OpenLoopResult   `json:"openloop,omitempty"`
	SLO        []postal.GateResult      `json:"slo,omitempty"`
	PhaseSLO   []postal.PhaseGateResult `json:"phase_slo,omitempty"`
	SLOPass    *bool                    `json:"slo_pass,omitempty"`
	Drills     []drillRecord            `json:"drills,omitempty"`
	Audit      *loadAudit               `json:"audit,omitempty"`
}

// gitRevision reads the binary's VCS stamp; binaries built outside a
// checkout (notably `go test` binaries) report "unknown".
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// appendBenchRun loads path (tolerating a missing file), appends run,
// and writes the file back. A corrupt existing file is an error, not
// silently clobbered history.
//
// The reader is forward-compatible on purpose: existing run entries
// are kept as raw JSON and re-emitted verbatim, and unknown top-level
// keys are preserved (after "schema" and "runs", in sorted order) —
// an older binary appending to a file written by a newer schema must
// not strip the fields it does not understand. The round-trip is
// pinned by TestAppendBenchRunPreservesUnknownFields.
func appendBenchRun(path string, run benchRun) error {
	top := map[string]json.RawMessage{}
	var runs []json.RawMessage
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &top); err != nil {
			return fmt.Errorf("existing %s is not valid JSON (move it aside): %w", path, err)
		}
		if raw, ok := top["runs"]; ok {
			if err := json.Unmarshal(raw, &runs); err != nil {
				return fmt.Errorf("existing %s has a malformed runs array (move it aside): %w", path, err)
			}
		}
	case os.IsNotExist(err):
		// fresh file
	default:
		return err
	}

	newRun, err := json.Marshal(run)
	if err != nil {
		return err
	}
	runs = append(runs, newRun)

	var extra []string
	for k := range top {
		if k != "schema" && k != "runs" {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)

	// Assemble by hand to control key order (schema, runs, then the
	// preserved unknowns) — a map would shuffle it.
	var buf bytes.Buffer
	buf.WriteString(`{"schema":`)
	sv, _ := json.Marshal(benchSchema)
	buf.Write(sv)
	buf.WriteString(`,"runs":[`)
	for i, r := range runs {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(r)
	}
	buf.WriteByte(']')
	for _, k := range extra {
		buf.WriteByte(',')
		kv, _ := json.Marshal(k)
		buf.Write(kv)
		buf.WriteByte(':')
		buf.Write(top[k])
	}
	buf.WriteByte('}')

	var out bytes.Buffer
	if err := json.Indent(&out, buf.Bytes(), "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// gateDrillRegressions gates each drill's wall-clock duration against
// the history already accreted at path: prior successful executions of
// the same drill on the same deployment with the same population are
// the baseline, and — once at least three samples exist, so one noisy
// run cannot set the bar — a duration over twice their median is a
// regression. Recovery time is a durability property with a perf
// budget: a crash recovery or disk-full resume that quietly doubles is
// a bug the zero-loss audit alone would never catch. Called before the
// current run is appended, so a run never gates against itself; no
// history (or too little) gates nothing.
func gateDrillRegressions(path string, run benchRun) []string {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var top struct {
		Runs []benchRun `json:"runs"`
	}
	if err := json.Unmarshal(b, &top); err != nil {
		return nil
	}
	hist := map[string][]float64{}
	for _, r := range top.Runs {
		if r.Deployment != run.Deployment || r.Users != run.Users {
			continue
		}
		for _, d := range r.Drills {
			if d.OK {
				hist[d.Name] = append(hist[d.Name], d.DurSec)
			}
		}
	}
	var regressions []string
	for _, d := range run.Drills {
		samples := hist[d.Name]
		if len(samples) < 3 {
			continue
		}
		med := median(samples)
		if d.DurSec > 2*med {
			regressions = append(regressions,
				fmt.Sprintf("drill %s took %.3fs, over 2x the %.3fs median of %d prior runs (%s deployment, %d users)",
					d.Name, d.DurSec, med, len(samples), run.Deployment, run.Users))
		}
	}
	return regressions
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// runTraceProfile runs the traced open-loop profile against the
// verified library: a fixed offered rate, per-request root spans, and
// the per-stage latency breakdown from the span durations. It returns
// the run, the evaluated SLO gates, and their overall verdict.
func runTraceProfile(base string, w postal.Workload, rate float64, dur time.Duration, seed int64, noFsync bool) (postal.OpenLoopResult, []postal.GateResult, bool, error) {
	if base == "" {
		base = postal.RAMDir()
	}
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	mk := postal.NewBackend
	if noFsync {
		mk = postal.NewFastBackend
	}
	b, cleanup, err := mk("mailboat", base, w.Users, workers, seed)
	if err != nil {
		return postal.OpenLoopResult{}, nil, false, err
	}
	defer cleanup()

	reg := obs.NewRegistry()
	tracer := trace.New(0, 0)
	tracer.Stages = trace.NewStageMetrics(reg)
	res := postal.OpenLoop(b, postal.OpenLoopOptions{
		Workers:  workers,
		Users:    w.Users,
		Skew:     w.Skew,
		ZipfS:    w.ZipfS,
		Mix:      w.Mix,
		Rate:     rate,
		Duration: dur,
		Seed:     seed,
		Tracer:   tracer,
	})
	gates, pass := postal.EvaluateGates(postal.DefaultGates(), res)
	return res, gates, pass, nil
}

// printProfile renders the open-loop profile for humans: offered vs
// achieved load, per-op quantiles, the per-stage breakdown, and the
// SLO verdicts.
func printProfile(w io.Writer, res postal.OpenLoopResult, gates []postal.GateResult, pass bool) {
	fmt.Fprintf(w, "open-loop trace profile: offered %.0f req/s, achieved %.0f req/s (%d reqs, %d errors, %v)\n",
		res.OfferedRate, res.Throughput, res.Requests, res.Errors, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  deliver: count %d  p50 %s  p90 %s  p99 %s\n",
		res.Deliver.Count, fmtSeconds(res.Deliver.P50), fmtSeconds(res.Deliver.P90), fmtSeconds(res.Deliver.P99))
	fmt.Fprintf(w, "  pickup:  count %d  p50 %s  p90 %s  p99 %s\n",
		res.Pickup.Count, fmtSeconds(res.Pickup.P50), fmtSeconds(res.Pickup.P90), fmtSeconds(res.Pickup.P99))
	if len(res.Stages) > 0 {
		fmt.Fprintf(w, "  per-stage latency (from span durations):\n")
		fmt.Fprintf(w, "    %-10s %-16s %8s %10s %10s %10s\n", "op", "stage", "count", "p50", "p90", "p99")
		for _, s := range res.Stages {
			fmt.Fprintf(w, "    %-10s %-16s %8d %10s %10s %10s\n",
				s.Op, s.Stage, s.Count, fmtSeconds(s.P50), fmtSeconds(s.P90), fmtSeconds(s.P99))
		}
	}
	for _, g := range gates {
		fmt.Fprintf(w, "  SLO %s\n", g)
	}
	if pass {
		fmt.Fprintln(w, "  SLO verdict: PASS")
	} else {
		fmt.Fprintln(w, "  SLO verdict: FAIL")
	}
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
