// Command bench is the repository's pinned benchmark: one command that
// measures both products — the checker and the mail store — with names
// every later change can cite. BENCHMARK.json at the repository root
// describes it to the driver; README.md in this directory is the
// glossary.
//
//	go run ./bench --workload all --seed 1            # every end-to-end metric
//	go run ./bench --workload mail-vault --traced     # plus the per-layer ladder
//	go run ./bench --selfcheck                        # do two runs of one code agree?
//
// The driver's form is
//
//	go run ./bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and the last line of standard output is then one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/postal"
)

const schema = "perennial-bench/v1"

// header describes the run: what was measured, where.
type header struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"`
	Revision   string `json:"revision"`
	GoVersion  string `json:"go"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	StoreDir   string `json:"store_dir"`
	StoreFS    string `json:"store_fs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

// record is what --json writes.
type record struct {
	Header    header    `json:"header"`
	Workloads []*result `json:"workloads"`
}

// revision finds the VCS revision: the build stamp when there is one
// (`go build`), else git in the working directory (`go run` does not
// stamp), else "unknown".
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	traced    bool
	dir       string
	out       string
	jsonPath  string
	selfcheck bool
	smoke     bool
	child     bool
	describe  bool
	yard      bool
	raw       bool
	pass      string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "check-suite, mail-direct, mail-net, mail-vault, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "nominal length of the measured phase")
	fs.IntVar(&o.trace, "trace", 0, "1 = also run the traced legs and report the per-layer metrics (driver form of --traced)")
	fs.BoolVar(&o.traced, "traced", false, "also run the traced legs and print the per-layer ladder")
	fs.StringVar(&o.dir, "dir", "", "directory for the mail stores (default: tmpfs, postal.RAMDir()); name a disk for the real-disk rung")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for trace files")
	fs.StringVar(&o.jsonPath, "json", "", "also write the run as one "+schema+" record to this file")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set twice on one seed and compare against the bounds")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes (each workload well under 2 s): checks plumbing, not performance")
	fs.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json as the metric catalogue defines it, and exit")
	fs.BoolVar(&o.yard, "yard", false, "time the yardstick's kernels on this host, print the readings beside the reference ones, and exit")
	fs.BoolVar(&o.raw, "raw", false, "report wall-clock timings as measured instead of at the yardstick's reference host speed")
	fs.StringVar(&o.pass, "pass", "", "internal: run one pass (seq, par, traced, canary) and write its record to --json")
	fs.BoolVar(&o.child, "child", false, "internal: this process is one workload of a --workload all run (no header, no contract line)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	o.traced = o.traced || o.trace == 1
	if o.seconds < 1 || o.seconds > 60 {
		return nil, fmt.Errorf("--seconds must be between 1 and 60")
	}
	if o.workload != "all" && !isWorkload(o.workload) {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

func (o *options) header() header {
	dir := o.dir
	if dir == "" {
		dir = postal.RAMDir()
	}
	return header{
		Schema: schema, Date: time.Now().UTC().Format(time.RFC3339), Revision: revision(),
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), GoMaxProcs: 1,
		Clients: clientCount(), StoreDir: dir, StoreFS: fsTypeOf(dir),
		Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# %s  revision %s  %s  cpus %d  gomaxprocs %d (gated legs: one client on one P)  parallel legs %d\n",
		h.Schema, h.Revision, h.GoVersion, h.CPUs, h.GoMaxProcs, h.Clients)
	fmt.Fprintf(w, "# stores under %s (%s)  seed %d  seconds %d  traced %v\n",
		h.StoreDir, h.StoreFS, h.Seed, h.Seconds, h.Traced)
	if h.Revision == "unknown" {
		fmt.Fprintln(w, "# WARNING: REVISION UNKNOWN — this record cannot be placed on a trajectory; run from a git checkout")
	}
	if h.StoreFS == "tmpfs" {
		fmt.Fprintln(w, "# note: tmpfs — fsync is RAM; latencies are this sandbox's, not a device's (--dir <disk> for the real-disk rung)")
	}
}

func (o *options) runCfg(log io.Writer) *runCfg {
	return &runCfg{z: newSizes(o.seconds, o.smoke), seed: o.seed, seconds: o.seconds, dir: o.dir, out: o.out,
		traced: o.traced, smoke: o.smoke, log: log}
}

// runWorkload runs one workload. exe, when non-empty, lets check-suite
// run its passes in child processes.
func runWorkload(o *options, name, exe string, log io.Writer) *result {
	cfg := o.runCfg(log)
	cfg.exe = exe
	var r *result
	if name == wlCheckSuite {
		r = runCheckSuite(cfg)
	} else {
		r = runMail(cfg, name)
	}
	r.finish(o.traced)
	return r
}

// contractLine is the driver's result object: with --trace 0 every
// end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
// metric.
func contractLine(r *result, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = mv{r.PerLayer[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = mv{r.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		panic(err) // finish() made every value finite
	}
	return string(b)
}

// benchmarkJSON renders the catalogue in the driver's BENCHMARK.json
// form; the committed file is this output.
func benchmarkJSON() string {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

func writeRecord(path string, rec record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// childRecord re-executes this binary with args plus "--json <tmp>"
// and decodes the JSON the child writes there. The temporary file lives
// in outDir, inside the benchmark's own output directory.
func childRecord(exe string, args []string, outDir string, stdout, stderr io.Writer, into any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(outDir, "child-*.json")
	if err != nil {
		return err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command(exe, append(args, "--json", tmp.Name())...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(tmp.Name())
	if err == nil {
		err = json.Unmarshal(b, into)
	}
	if err != nil {
		return fmt.Errorf("child left no readable record (%v; %v)", runErr, err)
	}
	return nil
}

// runChild re-executes this binary for one workload, so that heap and
// RSS do not leak from one workload into the next, and reads the
// child's record back.
func runChild(o *options, name string, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
		"--out", o.out, "--child"}
	if o.traced {
		args = append(args, "--traced")
	}
	if o.smoke {
		args = append(args, "--smoke")
	}
	if o.raw {
		args = append(args, "--raw")
	}
	if o.dir != "" {
		args = append(args, "--dir", o.dir)
	}
	var rec record
	if err := childRecord(exe, args, o.out, stdout, stderr, &rec); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if len(rec.Workloads) != 1 {
		return nil, fmt.Errorf("workload %s: the child's record holds %d workloads", name, len(rec.Workloads))
	}
	return rec.Workloads[0], nil
}

// runAll runs every workload, each in a child process.
func runAll(o *options, stdout, stderr io.Writer) ([]*result, bool) {
	var results []*result
	ok := true
	for _, w := range workloadDefs {
		r, err := runChild(o, w.Name, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			ok = false
			continue
		}
		results = append(results, r)
		ok = ok && r.Correct
	}
	return results, ok
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if o.describe {
		fmt.Fprintln(stdout, benchmarkJSON())
		return 0
	}
	if o.yard {
		return printYard(o, stdout, stderr)
	}
	// Everything gated runs on one P; the legs that are about
	// parallelism raise it for their duration (withProcs).
	runtime.GOMAXPROCS(1)
	rawTimings = o.raw
	if o.pass != "" {
		// One check-suite pass, on behalf of runPass.
		b, err := json.Marshal(checkPass(o.runCfg(stderr), o.pass))
		if err == nil {
			err = os.WriteFile(o.jsonPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	h := o.header()
	if !o.child {
		h.print(stdout)
	}
	switch {
	case o.selfcheck:
		return selfcheck(o, h, stdout, stderr)
	case o.workload == "all":
		results, ok := runAll(o, stdout, stderr)
		if o.jsonPath != "" {
			if err := writeRecord(o.jsonPath, record{Header: h, Workloads: results}); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !ok {
			fmt.Fprintln(stdout, "RESULT: FAILED — see the lines marked ! above")
			return 1
		}
		fmt.Fprintf(stdout, "RESULT: ok — %d workloads, every output verified\n", len(results))
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		exe = "" // passes then share this process
	}
	r := runWorkload(o, o.workload, exe, stderr)
	fmt.Fprint(stdout, r.table())
	if o.jsonPath != "" {
		if err := writeRecord(o.jsonPath, record{Header: h, Workloads: []*result{r}}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !o.child {
		fmt.Fprintln(stdout, contractLine(r, o.traced))
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// printYard is bench --yard: this host's yardstick readings beside the
// reference ones, each kernel timed alone for two seconds on one P.
func printYard(o *options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(1)
	base, err := storeBase(o.runCfg(stderr))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(base)
	k, g, s, e, err := yardReadings(base, 2*time.Second)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-28s %12s %12s %8s\n", "yardstick kernel", "this host", "reference", "speed")
	for _, k := range []struct {
		name      string
		got, want time.Duration
	}{{"task round", k, nominalTaskRound}, {"compute round", g, nominalCPURound}, {"file op (" + fsTypeOf(base) + ")", s, nominalSysOp}, {"echo trip", e, nominalEchoTrip}} {
		fmt.Fprintf(stdout, "%-28s %12v %12v %8.3f\n", k.name, k.got, k.want, float64(k.want)/float64(k.got))
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
