// mailbench reproduces Figure 11: throughput of Mailboat, GoMail, and
// (simulated) CMAIL under the §9.3 mixed workload — equal parts
// SMTP-style delivery and POP3-style pickup+delete, 100 users, one
// closed-loop client per core, fixed total requests — on a RAM-backed
// store, sweeping the number of cores.
//
// Usage:
//
//	mailbench [-cores 1,2,4,8] [-requests N] [-users N] [-servers a,b,c]
//	          [-dir path] [-seed N] [-json path]
//	          [-no-fsync] [-trace] [-rate N] [-profile-duration d]
//	          [-bench path] [-slo] [-load] [-duration d] [-skew uniform|zipf]
//	          [-zipf-s S] [-mix F] [-drill crash,fault,corrupt,partition,diskfull]
//
// By default the mailboat backends run with the full checked sync
// discipline (fsync spool data, fsync the mailbox directory before
// acking). -no-fsync disables both barriers — the drill knob for the
// daemon's fast mode, whose checked contract weakens to prefix
// durability (acked mail may be rolled back by an OS crash, but the
// surviving mailbox is always a no-holes prefix of the delivery
// order). Compare the two to price durability.
//
// -json additionally writes the sweep as machine-readable JSON (one
// object with run parameters and a per-point array carrying
// requests/sec plus deliver/pickup latency count, mean, p50/p90/p99 in
// seconds, measured with the internal/obs histograms).
//
// -trace runs the open-loop trace profile instead of the sweep:
// requests are issued on a fixed schedule at -rate req/s (latencies
// measured from the scheduled start, so queueing counts — no
// coordinated omission), every request carries a trace root span, and
// the per-stage breakdown (spool write vs. publish link vs. directory
// sync) is reported from the span durations, then checked against the
// declared latency SLO gates. Both -trace and -json runs append a
// dated entry (with the build's git revision) to the -bench file,
// BENCH_mailboat.json by default, so a working tree accretes a
// performance history; -slo makes a failing gate exit nonzero.
//
// -load (implied by -drill) runs the sustained load harness instead
// of the sweep: an open-loop multi-tenant workload — -users mailboxes
// under -skew uniform|zipf (exponent -zipf-s) with a -mix fraction of
// deliveries — at -rate req/s for -duration, while the -drill list
// (crash, fault, corrupt, partition, diskfull; comma-separated,
// evenly spaced through the run) executes against the live store.
// The corrupt drill runs a checksummed, mirrored store: one replica's
// live bytes are silently flipped mid-load and heal-scrubbed under
// load, and the run fails unless the rot was detected rather than
// served, a final scrub is clean, and every acknowledged delivery is
// readable after a reboot. The partition drill runs a primary/backup
// pair over loopback TCP: the replication link is cut and healed
// mid-load, and the run fails unless the pair reports in-sync after
// the heal (catch-up resync) and the two stores end byte-identical.
// The diskfull drill forces the store's no-space signal mid-load
// (fill), asserts every delivery is refused with the 452-class
// insufficient-storage marker rather than hung or lost (shed), then
// releases the signal (free) and measures time back to the first
// committed delivery (recover). Latency is bucketed into steady vs
// drill phases by scheduled start; the gated steady phases decide
// the SLO verdict, and a post-run audit enforces zero acked-mail
// loss, no resurrected deletes, hash-clean reads, and (replicated)
// byte-identical stores. Every run appends a schema-v3 record to
// -bench, and each drill's duration is gated against the run history
// in that file (a drill 2x slower than the median of prior runs on
// the same deployment and population fails the run under -slo).
// Audit and drill failures print the seed and the verbatim replay
// command. See docs/DURABILITY.md for the claims each drill
// substantiates.
//
// Servers: mailboat (verified library, direct calls — the paper's
// measurement method), gomail, cmail (simulated), and mailboat-net (the
// same library behind real SMTP/POP3 over loopback TCP, quantifying the
// protocol overhead §9.3 excluded).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/postal"
)

func main() {
	coresFlag := flag.String("cores", defaultCores(), "comma-separated core counts to sweep")
	requests := flag.Int("requests", 20000, "total requests per measurement")
	users := flag.Uint64("users", 100, "number of user mailboxes")
	servers := flag.String("servers", "mailboat,gomail,cmail", "comma-separated servers to measure")
	dir := flag.String("dir", "", "scratch directory (default: RAM-backed)")
	seed := flag.Int64("seed", 1, "workload seed")
	jsonPath := flag.String("json", "", "also write machine-readable results to this file")
	noFsync := flag.Bool("no-fsync", false, "run the mailboat backends without durability barriers (acked mail may be lost on an OS crash; contract weakens to prefix durability)")
	traceMode := flag.Bool("trace", false, "run only the traced open-loop profile (per-stage latency breakdown + SLO gates) and append it to -bench")
	rate := flag.Float64("rate", 1000, "offered load for the open-loop trace profile, requests/second")
	profileDur := flag.Duration("profile-duration", 2*time.Second, "duration of the open-loop trace profile")
	benchPath := flag.String("bench", "BENCH_mailboat.json", "append-style dated results file, written by -trace, -json, and -load runs")
	sloStrict := flag.Bool("slo", false, "exit nonzero when an SLO gate fails")
	loadMode := flag.Bool("load", false, "run the sustained open-loop load harness instead of the sweep (implied by -drill)")
	duration := flag.Duration("duration", 0, "duration of the -load run (0 = auto: 8s, scaled up for large -users so drill windows contain O(users) recovery)")
	skew := flag.String("skew", postal.SkewUniform, "mailbox popularity skew for -load and -trace: uniform or zipf")
	zipfS := flag.Float64("zipf-s", postal.DefaultZipfS, "zipf exponent (> 1) when -skew zipf")
	mix := flag.Float64("mix", 0.5, "fraction of requests that are deliveries, in [0,1]")
	drillFlag := flag.String("drill", "", "comma-separated mid-load drills for -load: crash, fault, corrupt, partition, diskfull")
	flag.Parse()

	if *loadMode || *drillFlag != "" {
		cfg := loadConfig{
			base:     *dir,
			users:    *users,
			rate:     *rate,
			duration: *duration,
			seed:     *seed,
			noFsync:  *noFsync,
			skew:     *skew,
			zipfS:    *zipfS,
			mix:      *mix,
			drills:   parseDrills(*drillFlag),
		}
		if cfg.duration == 0 {
			cfg.duration = autoDuration(cfg.users)
		}
		out, err := runLoad(cfg)
		if out != nil {
			printLoad(os.Stdout, cfg, out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mailbench: load harness: %v\n", err)
			os.Exit(1)
		}
		run := benchRun{
			Date:       time.Now().UTC().Format(time.RFC3339),
			Revision:   gitRevision(),
			Go:         runtime.Version(),
			Store:      storeDesc(*dir),
			Durability: durabilityDesc(*noFsync),
			Users:      *users,
			Skew:       *skew,
			Mix:        *mix,
			Deployment: out.Deployment,
			OpenLoop:   &out.Res,
			SLO:        out.Gates,
			PhaseSLO:   out.PhaseGates,
			SLOPass:    &out.SLOPass,
			Drills:     out.Drills,
			Audit:      &out.Audit,
		}
		// Gate drill durations against the history BEFORE appending this
		// run, so a run never dilutes the baseline it is judged by.
		regressions := gateDrillRegressions(*benchPath, run)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "mailbench: drill regression: %s\n  seed %d; replay: %s\n",
				r, cfg.seed, replayCommand(cfg))
		}
		if err := appendBenchRun(*benchPath, run); err != nil {
			fmt.Fprintf(os.Stderr, "mailbench: writing %s: %v\n", *benchPath, err)
			os.Exit(1)
		}
		fmt.Printf("bench history appended to %s\n", *benchPath)
		if (!out.SLOPass || len(regressions) > 0) && *sloStrict {
			os.Exit(1)
		}
		return
	}

	// profile runs the traced open-loop stage profile and records it in
	// the dated bench file; -trace runs only this, -json runs it after
	// the sweep (so every machine-readable run carries per-stage
	// quantiles and an SLO verdict).
	profile := func(sweep []postal.SweepPoint) bool {
		w := postal.Workload{Users: *users, Skew: *skew, ZipfS: *zipfS, Mix: *mix}
		res, gates, pass, err := runTraceProfile(*dir, w, *rate, *profileDur, *seed, *noFsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mailbench: trace profile: %v\n", err)
			os.Exit(1)
		}
		printProfile(os.Stdout, res, gates, pass)
		run := benchRun{
			Date:       time.Now().UTC().Format(time.RFC3339),
			Revision:   gitRevision(),
			Go:         runtime.Version(),
			Store:      storeDesc(*dir),
			Durability: durabilityDesc(*noFsync),
			Users:      *users,
			Skew:       *skew,
			Mix:        *mix,
			Sweep:      sweep,
			OpenLoop:   &res,
			SLO:        gates,
			SLOPass:    &pass,
		}
		if err := appendBenchRun(*benchPath, run); err != nil {
			fmt.Fprintf(os.Stderr, "mailbench: writing %s: %v\n", *benchPath, err)
			os.Exit(1)
		}
		fmt.Printf("bench history appended to %s\n", *benchPath)
		return pass
	}

	if *traceMode {
		if pass := profile(nil); !pass && *sloStrict {
			os.Exit(1)
		}
		return
	}

	var cores []int
	for _, s := range strings.Split(*coresFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "mailbench: bad core count %q\n", s)
			os.Exit(2)
		}
		cores = append(cores, n)
	}

	points, err := postal.Sweep(postal.SweepOptions{
		Servers:          strings.Split(*servers, ","),
		Cores:            cores,
		Users:            *users,
		RequestsPerPoint: *requests,
		BaseDir:          *dir,
		Seed:             *seed,
		NoFsync:          *noFsync,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mailbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(postal.FormatSweep(points))
	fmt.Printf("\nstore: %s; workload: %d requests/point, %d users, 50/50 deliver:pickup; mailboat durability: %s\n",
		storeDesc(*dir), *requests, *users, durabilityDesc(*noFsync))
	if *noFsync {
		fmt.Println("WARNING: -no-fsync — acked mail may be lost on an OS crash (prefix-durability contract only)")
	}

	if *jsonPath != "" {
		out := struct {
			RequestsPerPoint int                 `json:"requests_per_point"`
			Users            uint64              `json:"users"`
			Seed             int64               `json:"seed"`
			Store            string              `json:"store"`
			Durability       string              `json:"durability"`
			Points           []postal.SweepPoint `json:"points"`
		}{*requests, *users, *seed, storeDesc(*dir), durabilityDesc(*noFsync), points}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mailbench: encoding json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mailbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("json results written to %s\n", *jsonPath)
		if pass := profile(points); !pass && *sloStrict {
			os.Exit(1)
		}
	}
}

func defaultCores() string {
	max := runtime.NumCPU()
	var cs []string
	for c := 1; c <= max && c <= 12; c *= 2 {
		cs = append(cs, strconv.Itoa(c))
	}
	return strings.Join(cs, ",")
}

func durabilityDesc(noFsync bool) string {
	if noFsync {
		return "no-fsync (prefix durability only)"
	}
	return "fsync+dirsync (full sync discipline)"
}

func storeDesc(dir string) string {
	if dir == "" {
		return postal.RAMDir() + " (RAM-backed)"
	}
	return dir
}
