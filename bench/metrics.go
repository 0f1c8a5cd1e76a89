package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file is the metric catalogue: every name the benchmark may
// print, with its unit, direction and (for end-to-end metrics) the
// regression bound. BENCHMARK.json at the repository root repeats the
// catalogue for the driver; TestCatalogueMatchesBenchmarkJSON keeps the
// two identical.

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// The four workloads, in the order `--workload all` runs them.
const (
	wlCheckSuite = "check-suite"
	wlMailDirect = "mail-direct"
	wlMailNet    = "mail-net"
	wlMailVault  = "mail-vault"
)

// workloadDef is one workload and the one-line reason it exists.
type workloadDef struct{ Name, Why string }

var workloadDefs = []workloadDef{
	{wlCheckSuite, "the checker alone: machine/explore/history/core do all the work, the serving stack none"},
	{wlMailDirect, "paper method (s9.3): closed loop straight into the library on tmpfs; mailboat + gfs.os are all of the time"},
	{wlMailNet, "same store through smtp/pop3 over loopback TCP: protocol + TCP are most of a request; traced run adds the open loop, where queueing shows"},
	{wlMailVault, "mirrored+checksummed+observed stack, read-heavy, 10k zipf mailboxes > dir-handle cache, then boot recovery"},
}

func isWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// endToEnd is what a user of either product sees. Every workload
// reports every one of these (the driver's contract): a mail-*
// workload measures the checker metrics on a small checker canary, and
// check-suite measures the mail metrics on the model file system — see
// README.md, "Why every workload reports every metric".
//
// The bounds are the contract's maximum, 25 %, not what one would wish
// for (the issue hoped for 10 %): normalised by the yardstick, ten runs
// of one binary spread 2 to 14 % of their median (README,
// "Steadiness"), the driver wants a spread under a third of the bound,
// and a host this shared has worse quarters of an hour than the ones
// measured. Only the storage ratio, an exact count, keeps its 2 %.
//
// ops_failed_ratio is deliberately not in this list: it is 0 on a
// healthy run, and a metric whose median is 0 cannot carry a relative
// bound. It is printed by every run and travels in the contract's own
// `failed` / `attempted` keys.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.25},
	{"deliver_p50_us", "us", "lower", 0.25},
	{"deliver_p99_us", "us", "lower", 0.25},
	{"pickup_p50_us", "us", "lower", 0.25},
	{"pickup_p99_us", "us", "lower", 0.25},
	{"bytes_stored_per_user_byte", "ratio", "lower", 0.02},
	{"recover_s", "s", "lower", 0.25},
	{"verify_s", "s", "lower", 0.25},
	{"convict_s", "s", "lower", 0.25},
}

// opsFailedRatio is printed beside the end-to-end set; its bound is
// absolute (+0.001), not relative.
const opsFailedRatio = "ops_failed_ratio"

// gfsCalls are the gfs.System calls the OS rung reports a mean time
// for.
var gfsCalls = []string{"create", "append", "sync", "syncdir", "link", "delete", "open", "readat", "list"}

// checkPhases are the explore.Scenario function fields the traced
// checker pass wraps with timers.
var checkPhases = []string{"setup", "init", "main", "recover", "post", "invariant", "fingerprint"}

// heavyScenarios maps the metric suffix to the verified scenario whose
// verify time it reports: the five entries that are ~97 % of a pass.
var heavyScenarios = []struct{ Key, Scenario string }{
	{"mbcrash", "mb/deliver+pickup+crash"},
	{"mbwb", "mb/writeback+sync-discipline"},
	{"mbnospace", "mb/nospace+clean-abort"},
	{"replnet", "mb/replicated+crash+net"},
	{"replfs", "mb/replicated+failstop"},
}

// perLayer is the ladder: one block per package of the repository (plus
// the benchmark's own generator and process). With --trace 1 a run
// prints every one; a layer the workload bypasses reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// loadgen — bench's own open-loop generator (mail-net).
	add("us", "lower", "loadgen.late_p50_us", "loadgen.late_p99_us")
	add("count", "lower", "loadgen.backlog_max")
	add("us", "lower", "loadgen.noop_p50_us", "loadgen.noop_p99_us")
	add("req/s", "higher", "loadgen.max_ok_rate_rps")
	for _, rate := range []string{"r2000", "r4000", "r6000"} {
		add("us", "lower", "loadgen."+rate+".deliver_p50_us", "loadgen."+rate+".pickup_p50_us",
			"loadgen."+rate+".deliver_p99_us", "loadgen."+rate+".pickup_p99_us")
	}
	// smtp, pop3 — mail-net only.
	add("us", "lower", "smtp.self_us_per_deliver")
	add("count", "lower", "smtp.round_trips_per_deliver")
	add("ratio", "lower", "smtp.wire_bytes_per_user_byte")
	add("us", "lower", "pop3.self_us_per_session")
	add("count", "lower", "pop3.round_trips_per_session")
	add("ratio", "lower", "pop3.wire_bytes_per_user_byte")
	// mailboatd.
	add("us", "lower", "mailboatd.self_us_per_deliver", "mailboatd.self_us_per_pickup")
	add("ratio", "lower", "mailboatd.shed_ratio", "mailboatd.transient_ratio")
	add("s", "lower", "mailboatd.boot_s")
	// mailboat.
	add("us", "lower", "mailboat.self_us_per_deliver", "mailboat.self_us_per_pickup", "mailboat.self_us_per_delete")
	add("count", "lower", "mailboat.fs_calls_per_deliver", "mailboat.fs_calls_per_pickup_msg",
		"mailboat.creates_per_deliver", "mailboat.readats_per_kib")
	add("us", "lower", "mailboat.lock_wait_us_per_op")
	// gfs middleware — mail-vault only.
	for _, l := range []string{"gfs.observed", "gfs.faulty", "gfs.checksummed", "gfs.mirrored"} {
		add("us", "lower", l+".self_us_per_deliver", l+".self_us_per_pickup")
		switch l {
		case "gfs.checksummed":
			add("ratio", "lower", l+".calls_out_per_call_in", l+".bytes_out_per_byte_in", l+".bytes_read_per_byte_returned")
		case "gfs.mirrored":
			add("ratio", "lower", l+".calls_out_per_call_in", l+".bytes_out_per_byte_in")
		}
	}
	// gfs.os — the floor under every mail-* latency.
	add("us", "lower", "gfs.os.self_us_per_deliver", "gfs.os.self_us_per_pickup")
	for _, c := range gfsCalls {
		add("us", "lower", "gfs.os.us_per_call."+c)
	}
	add("count", "lower", "gfs.os.syncs_per_deliver", "gfs.os.syncdirs_per_deliver")
	add("ratio", "lower", "gfs.os.bytes_written_per_user_byte")
	// trace — the observability price tag (mail-direct).
	add("ratio", "lower", "trace.overhead_ratio_deliver", "trace.overhead_ratio_pickup")
	// bench — validity of the ladder itself.
	add("ratio", "lower", "bench.shim_overhead_ratio", "bench.unattributed_ratio")
	// The yardstick's median reading against the reference (1 = the host
	// ran at the reference speed): multiply a normalised time by it to
	// get back the raw one. Free from the untraced run.
	add("ratio", "higher", "bench.host_speed")
	// proc — free from the untraced run.
	add("mb", "lower", "proc.peak_rss_mb")
	add("count", "lower", "proc.allocs_per_op")
	add("bytes", "lower", "proc.alloc_bytes_per_op")
	add("ms", "lower", "proc.gc_pause_ms")
	add("s", "lower", "proc.cpu_user_s", "proc.cpu_sys_s")
	// explore.
	add("count", "lower", "explore.execs", "explore.crashed_execs", "explore.checked_states",
		"explore.pruned", "explore.boundaries")
	add("1/s", "higher", "explore.execs_per_s", "explore.states_per_s")
	add("count", "lower", "explore.allocs_per_exec")
	add("bytes", "lower", "explore.alloc_bytes_per_exec")
	add("ratio", "lower", "explore.sys_cpu_share")
	add("s", "lower", "explore.verify_par_s")
	add("ratio", "higher", "explore.parallel_speedup")
	add("us", "lower", "explore.replay_us_per_exec")
	for _, p := range checkPhases {
		add("s", "lower", "explore.phase_s."+p)
	}
	add("s", "lower", "explore.self_s")
	for _, h := range heavyScenarios {
		add("s", "lower", "explore.heavy."+h.Key+".verify_s")
	}
	add("count", "lower", "explore.bug_execs_total")
	// machine, history, core, gfs.model — microbenchmarks, as
	// internal/machine/bench_test.go and ablation_bench_test.go run them.
	add("ns", "lower", "machine.step_ns", "machine.refop_ns", "machine.lock_ns", "machine.spawn_ns", "machine.era_ns")
	add("count", "lower", "machine.allocs_per_step")
	add("us", "lower", "history.check_us_contended")
	add("count", "lower", "history.states_contended")
	add("us", "lower", "history.check_us_typical")
	add("count", "lower", "history.allocs_per_check")
	add("ns", "lower", "core.lease_cycle_ns")
	add("us", "lower", "gfs.model.deliver_us")
	add("count", "lower", "gfs.model.steps_per_deliver")
	return out
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many samples the value summarises (0 when the notion
	// does not apply, e.g. a ratio of two totals).
	N int64 `json:"samples"`
	// Bound is repeated from the catalogue for end-to-end metrics so a
	// --json record is self-describing; 0 for per-layer metrics.
	Bound float64 `json:"bound,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Detail carries the human-only extras (highest supported
	// percentile, audit counts, per-rate latencies).
	Detail []string `json:"detail,omitempty"`
	// Problems lists every correctness or validity failure; non-empty
	// means Correct is false and the process exits non-zero.
	Problems []string `json:"problems,omitempty"`
}

func newResult(workload string) *result {
	return &result{
		Workload: workload,
		Correct:  true,
		EndToEnd: map[string]metric{},
		PerLayer: map[string]metric{},
	}
}

func defOf(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// e2e records an end-to-end metric; the name must be in the catalogue
// (or be ops_failed_ratio).
func (r *result) e2e(name string, v float64, n int64) {
	if name == opsFailedRatio {
		r.EndToEnd[name] = metric{Value: v, Unit: "ratio", N: n}
		return
	}
	d, ok := defOf(endToEnd, name)
	if !ok {
		panic("bench: unknown end-to-end metric " + name)
	}
	r.EndToEnd[name] = metric{Value: v, Unit: d.Unit, N: n, Bound: d.Bound}
}

// layer records a per-layer metric; the name must be in the catalogue.
func (r *result) layer(name string, v float64, n int64) {
	d, ok := defOf(perLayer, name)
	if !ok {
		panic("bench: unknown per-layer metric " + name)
	}
	r.PerLayer[name] = metric{Value: v, Unit: d.Unit, N: n}
}

// fail records a correctness or validity failure.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) detail(format string, args ...any) {
	r.Detail = append(r.Detail, fmt.Sprintf(format, args...))
}

// finish fills the failure ratio, zero-fills the per-layer metrics the
// workload's layers do not produce (traced runs only), and checks that
// every value is a finite number.
func (r *result) finish(traced bool) {
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	r.e2e(opsFailedRatio, ratio, r.Attempted)
	if r.Failed > 0 {
		r.Correct = false
	}
	for _, d := range endToEnd {
		if _, ok := r.EndToEnd[d.Name]; !ok {
			r.fail("end-to-end metric %s was not measured", d.Name)
			r.e2e(d.Name, 0, 0)
		}
	}
	if traced {
		for _, d := range perLayer {
			if _, ok := r.PerLayer[d.Name]; !ok {
				r.PerLayer[d.Name] = metric{Unit: d.Unit}
			}
		}
	} else {
		r.PerLayer = nil
	}
	for _, set := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		for name, m := range set {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				r.fail("metric %s is not finite", name)
				m.Value = 0
				set[name] = m
			}
		}
	}
}

// table renders the result as the fixed-width human table.
func (r *result) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Workload)
	fmt.Fprintf(&b, "  %-36s %16s %-6s %10s %7s\n", "end-to-end metric", "value", "unit", "samples", "bound")
	for _, d := range endToEnd {
		m := r.EndToEnd[d.Name]
		fmt.Fprintf(&b, "  %-36s %16.6g %-6s %10d %6.0f%%\n", d.Name, m.Value, m.Unit, m.N, 100*d.Bound)
	}
	m := r.EndToEnd[opsFailedRatio]
	fmt.Fprintf(&b, "  %-36s %16.6g %-6s %10d  +0.001   (attempted %d, failed %d)\n",
		opsFailedRatio, m.Value, m.Unit, m.N, r.Attempted, r.Failed)
	if len(r.PerLayer) > 0 {
		fmt.Fprintf(&b, "  %-36s %16s %-6s %10s\n", "per-layer metric", "value", "unit", "samples")
		for _, d := range perLayer {
			m := r.PerLayer[d.Name]
			if m.Value == 0 && m.N == 0 {
				continue // a layer this workload bypasses
			}
			fmt.Fprintf(&b, "  %-36s %16.6g %-6s %10d\n", d.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, l := range r.Detail {
		fmt.Fprintf(&b, "  . %s\n", l)
	}
	sort.Strings(r.Problems)
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  ! %s\n", p)
	}
	return b.String()
}
