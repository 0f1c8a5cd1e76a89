// mailbench has two modes: the Figure 11 sweep and the -load/-drill
// harness. Neither is where a performance number comes from: the pinned
// benchmark, `go run ./bench`, is the one measuring instrument
// (EXPERIMENTS.md, "Retired instruments").
//
// By default it reproduces Figure 11: throughput of Mailboat, GoMail,
// and (simulated) CMAIL under the §9.3 mixed workload — equal parts
// SMTP-style delivery and POP3-style pickup+delete, 100 users, one
// closed-loop client per core, fixed total requests — on a RAM-backed
// store, sweeping the number of cores.
//
// Usage:
//
//	mailbench [-cores 1,2,4,8] [-requests N] [-servers a,b,c]
//	          [-users N] [-dir path] [-seed N] [-no-fsync]
//	mailbench -load|-drill crash,fault,corrupt,partition,diskfull
//	          [-rate N] [-duration d] [-skew uniform|zipf] [-zipf-s S]
//	          [-mix F] [-slo] [-users N] [-dir path] [-seed N] [-no-fsync]
//
// By default the mailboat backends run with the full checked sync
// discipline (fsync spool data, fsync the mailbox directory before
// acking). -no-fsync disables both barriers — the drill knob for the
// daemon's fast mode, whose checked contract weakens to prefix
// durability (acked mail may be rolled back by an OS crash, but the
// surviving mailbox is always a no-holes prefix of the delivery
// order). Compare the two sweeps to price durability.
//
// -load (implied by -drill) runs the sustained load harness instead
// of the sweep: an open-loop multi-tenant workload — -users mailboxes
// under -skew uniform|zipf (exponent -zipf-s) with a -mix fraction of
// deliveries — at -rate req/s for -duration (latencies measured from
// the scheduled start, so queueing counts), while the -drill list
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
// the SLO verdict (-slo makes a failing gate exit nonzero), and a
// post-run audit enforces zero acked-mail loss, no resurrected
// deletes, hash-clean reads, and (replicated) byte-identical stores.
// A run's record is what it prints — the drills, the per-phase gates,
// the audit — plus its exit status; it writes nothing outside its
// scratch stores. Audit and drill failures print the seed and the
// verbatim replay command. See docs/DURABILITY.md for the claims each
// drill substantiates.
//
// Servers: mailboat (verified library, direct calls — the paper's
// measurement method), gomail, cmail (simulated), and mailboat-net (the
// same library behind real SMTP/POP3 over loopback TCP, quantifying the
// protocol overhead §9.3 excluded).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/postal"
)

// flags is mailbench's whole flag surface: the load harness's share is
// the embedded loadConfig (what replayCommand renders back), the rest
// selects the mode or shapes the sweep.
type flags struct {
	loadConfig
	load     bool
	slo      bool
	cores    string
	requests int
	servers  string
}

// defineFlags declares every flag on fs; after fs.Parse the returned
// struct holds the run. main and the tests share it, so the replay line
// is checked against the flags main really parses.
func defineFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.cores, "cores", defaultCores(), "comma-separated core counts to sweep")
	fs.IntVar(&f.requests, "requests", 20000, "total requests per measurement")
	fs.Uint64Var(&f.users, "users", 100, "number of user mailboxes")
	fs.StringVar(&f.servers, "servers", "mailboat,gomail,cmail", "comma-separated servers to measure")
	fs.StringVar(&f.base, "dir", "", "scratch directory (default: RAM-backed)")
	fs.Int64Var(&f.seed, "seed", 1, "workload seed")
	fs.BoolVar(&f.noFsync, "no-fsync", false, "run the mailboat backends without durability barriers (acked mail may be lost on an OS crash; contract weakens to prefix durability)")
	fs.Float64Var(&f.rate, "rate", 1000, "offered load of the -load run, requests/second")
	fs.BoolVar(&f.slo, "slo", false, "exit nonzero when an SLO gate of the -load run fails")
	fs.BoolVar(&f.load, "load", false, "run the sustained open-loop load harness instead of the sweep (implied by -drill)")
	fs.DurationVar(&f.duration, "duration", 0, "duration of the -load run (0 = auto: 8s, scaled up for large -users so drill windows contain O(users) recovery)")
	fs.StringVar(&f.skew, "skew", postal.SkewUniform, "mailbox popularity skew for -load: uniform or zipf")
	fs.Float64Var(&f.zipfS, "zipf-s", postal.DefaultZipfS, "zipf exponent (> 1) when -skew zipf")
	fs.Float64Var(&f.mix, "mix", 0.5, "fraction of -load requests that are deliveries, in [0,1]")
	fs.Func("drill", "comma-separated mid-load drills for -load: crash, fault, corrupt, partition, diskfull", func(s string) error {
		f.drills = parseDrills(s)
		return nil
	})
	return f
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	if f.load || len(f.drills) > 0 {
		cfg := f.loadConfig
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
		if !out.SLOPass && f.slo {
			os.Exit(1)
		}
		return
	}

	var cores []int
	for _, s := range strings.Split(f.cores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "mailbench: bad core count %q\n", s)
			os.Exit(2)
		}
		cores = append(cores, n)
	}

	points, err := postal.Sweep(postal.SweepOptions{
		Servers:          strings.Split(f.servers, ","),
		Cores:            cores,
		Users:            f.users,
		RequestsPerPoint: f.requests,
		BaseDir:          f.base,
		Seed:             f.seed,
		NoFsync:          f.noFsync,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mailbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(postal.FormatSweep(points))
	fmt.Printf("\nstore: %s; workload: %d requests/point, %d users, 50/50 deliver:pickup; mailboat durability: %s\n",
		storeDesc(f.base), f.requests, f.users, durabilityDesc(f.noFsync))
	if f.noFsync {
		fmt.Println("WARNING: -no-fsync — acked mail may be lost on an OS crash (prefix-durability contract only)")
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
