// perennial-check runs the verification suite: every verified example's
// model-checking scenario (replicated disk, shadow copy, write-ahead
// log, group commit, Mailboat) plus the seeded-bug variants that must
// produce counterexamples. It is the reproduction's analog of running
// coqc over the paper's proofs — exit status 0 means every check came
// out as expected.
//
// Usage:
//
//	perennial-check [-pattern substr] [-max N] [-workers N]
//	                [-noreduce] [-selfcheck] [-v] [-min] [-progress d]
//	                [-cpuprofile FILE] [-memprofile FILE]
//
// The systematic search runs on -workers workers (default GOMAXPROCS)
// with its two reductions on, crash-boundary state dedup and sleep sets
// (disable both with -noreduce). -selfcheck runs every selected
// scenario twice — reductions off and on — and fails if they change a
// verdict, completeness, or a complete search's set of outcomes (the
// mechanical witness of DESIGN.md "The checker"). -progress streams live search telemetry to
// stderr at the given period (execs/s, frontier depth, dedup hit rate,
// per-worker donations, budget ETA); it reads only lock-free counters,
// so verdicts and counterexamples are identical with and without it.
// -cpuprofile and -memprofile write pprof profiles of the run
// (`-workers 1 -cpuprofile cpu.prof` is the profile docs/CHECKING.md
// reads). It checks; it does not measure: the checker's throughput,
// parallel speedup and per-entry times are `go run ./bench --workload
// check-suite --traced` (`explore.*`). See docs/CHECKING.md for the
// checker handbook.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/suite"
)

// The whole flag surface, pinned by TestFlagSurface: it checks, it does
// not measure.
var (
	pattern    = flag.String("pattern", "", "only run scenarios whose pattern or name contains this substring")
	maxExec    = flag.Int("max", 0, "override per-scenario execution budget")
	workers    = flag.Int("workers", 0, "systematic-search workers (0 = GOMAXPROCS)")
	noReduce   = flag.Bool("noreduce", false, "disable crash-boundary state dedup and sleep sets (escape hatch)")
	selfCheck  = flag.Bool("selfcheck", false, "run each scenario with the reductions off and on and fail if they change what it finds")
	verbose    = flag.Bool("v", false, "print counterexamples for expected bugs too, and per-worker stats")
	minimize   = flag.Bool("min", false, "minimize counterexample choice sequences before printing")
	progress   = flag.Duration("progress", 0, "stream live search progress to stderr at this period (0 = off)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write an allocation profile of the run to this file")
)

func main() {
	flag.Parse()

	entries := selectEntries(*pattern)
	if len(entries) == 0 {
		fmt.Fprintf(os.Stderr, "no scenarios match -pattern %q\n", *pattern)
		os.Exit(1)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// exit writes the profiles out first: os.Exit runs no deferred calls.
	exit := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
		os.Exit(code)
	}

	failed := 0
	for _, e := range entries {
		opts := e.Opts
		if *maxExec > 0 {
			opts.MaxExecutions = *maxExec
		}
		opts.Workers = *workers
		opts.NoReduce = *noReduce
		if *progress > 0 {
			// Telemetry goes to stderr so stdout stays the stable
			// machine-readable report surface.
			opts.Progress = &explore.ProgressOptions{
				Every: *progress,
				Sink:  func(s explore.Snapshot) { fmt.Fprintln(os.Stderr, s) },
			}
		}

		if *selfCheck {
			start := time.Now()
			with, without, err := explore.SelfCheck(e.Scenario, opts)
			elapsed := time.Since(start).Round(time.Millisecond)
			if err != nil {
				failed++
				fmt.Printf("%-34s %-38s %v\n", e.Scenario.Name, "SELF-CHECK FAIL", elapsed)
				fmt.Printf("    %v\n", err)
				continue
			}
			fmt.Printf("%-34s %-38s %v\n", e.Scenario.Name, "SELF-CHECK PASS", elapsed)
			fmt.Printf("    without reductions: %s\n", without.String())
			fmt.Printf("    with reductions:    %s (%d boundaries, %d pruned; %d slept, %d blocked)\n",
				with.String(), with.Stats.DistinctBoundaries, with.Stats.PrunedStates, with.Stats.Slept, with.Stats.SleepBlocked)
			continue
		}

		start := time.Now()
		rep := explore.Run(e.Scenario, opts)
		elapsed := time.Since(start).Round(time.Millisecond)

		status, ok := e.Verdict(rep)
		if !ok {
			failed++
		}
		fmt.Printf("%-34s %-38s %v\n", e.Scenario.Name, status, elapsed)
		fmt.Printf("    %s\n", rep.String())
		if rep.Err != nil {
			fmt.Printf("    %v\n", rep.Err)
		}
		fmt.Printf("    stats: %s\n", rep.Stats)
		if *verbose && len(rep.Stats.PerWorker) > 1 {
			fmt.Printf("    per-worker:")
			for w, ws := range rep.Stats.PerWorker {
				fmt.Printf(" w%d=%d", w, ws.Executions)
				if ws.Pruned > 0 {
					fmt.Printf("(%dp)", ws.Pruned)
				}
			}
			fmt.Println()
		}
		if rep.Counterexample != nil && (!e.WantViolation || *verbose) {
			if *minimize {
				min := explore.Minimize(e.Scenario, rep.Counterexample.Choices)
				fmt.Printf("    minimized to %d choices (from %d): %v\n",
					len(min), len(rep.Counterexample.Choices), min)
				if cx := explore.ReplayCx(e.Scenario, min); cx != nil {
					fmt.Println(indent(cx.Format(), "    "))
				}
			} else {
				fmt.Println(indent(rep.Counterexample.Format(), "    "))
			}
		}
	}
	fmt.Printf("\n%d scenarios, %d failed\n", len(entries), failed)
	if failed > 0 {
		exit(1)
	}
	exit(0)
}

// startProfiles starts the requested pprof profiles; the returned
// function finishes them and writes them out.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // bring the allocation statistics up to date
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return mem.Close()
	}, nil
}

func selectEntries(pattern string) []suite.Entry {
	var out []suite.Entry
	for _, e := range suite.All() {
		if pattern != "" &&
			!strings.Contains(e.Pattern, pattern) &&
			!strings.Contains(e.Scenario.Name, pattern) {
			continue
		}
		out = append(out, e)
	}
	return out
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
