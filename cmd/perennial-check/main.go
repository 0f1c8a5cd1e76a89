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
// Each entry is one sequential systematic search with its two
// reductions on, crash-boundary state dedup and sleep sets (disable
// both with -noreduce). -workers entries are checked at once (default
// GOMAXPROCS), and each entry's lines are printed in suite order, so
// the output is the same at every -workers but for the timings.
// -selfcheck runs every selected scenario twice — reductions off and on
// — and fails if they change a verdict, completeness, or a complete
// search's set of outcomes (the mechanical witness of DESIGN.md "The
// checker"). -progress streams live search telemetry to stderr at the
// given period (execs/s, frontier depth, dedup hit rate, budget ETA);
// it only reads counters, so reports are identical with and without
// it. -cpuprofile and -memprofile write pprof profiles of the run
// (`-workers 1 -cpuprofile cpu.prof` is the profile docs/CHECKING.md
// reads). It checks; it does not measure: the checker's throughput and
// per-entry times are `go run ./bench --workload check-suite --traced`
// (`explore.*`). See docs/CHECKING.md for the checker handbook.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/suite"
)

// The whole flag surface, pinned by TestFlagSurface: it checks, it does
// not measure.
var (
	pattern    = flag.String("pattern", "", "only run scenarios whose pattern or name contains this substring")
	maxExec    = flag.Int("max", 0, "override per-scenario execution budget")
	workers    = flag.Int("workers", 0, "entries checked at once, each one sequential search (0 = GOMAXPROCS)")
	noReduce   = flag.Bool("noreduce", false, "disable crash-boundary state dedup and sleep sets (escape hatch)")
	selfCheck  = flag.Bool("selfcheck", false, "run each scenario with the reductions off and on and fail if they change what it finds")
	verbose    = flag.Bool("v", false, "print counterexamples for expected bugs too")
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

	failed := checkAll(os.Stdout, entries, *workers, settings{
		maxExec:   *maxExec,
		noReduce:  *noReduce,
		selfCheck: *selfCheck,
		verbose:   *verbose,
		minimize:  *minimize,
		progress:  *progress,
	})
	fmt.Printf("\n%d scenarios, %d failed\n", len(entries), failed)
	if failed > 0 {
		exit(1)
	}
	exit(0)
}

// settings are the flags that say how each entry is searched and what
// is printed about it.
type settings struct {
	maxExec                                int
	noReduce, selfCheck, verbose, minimize bool
	progress                               time.Duration
}

// checkAll checks entries, up to workers of them at once (0 means
// GOMAXPROCS), each with one sequential search, and writes each entry's
// lines to w in the order of entries, as soon as it and every entry
// before it are done. It returns how many entries failed.
func checkAll(w io.Writer, entries []suite.Entry, workers int, c settings) (failed int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type result struct {
		out  bytes.Buffer
		ok   bool
		done chan struct{}
	}
	res := make([]result, len(entries))
	next := make(chan int, len(entries))
	for i := range res {
		res[i].done = make(chan struct{})
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	defer wg.Wait()
	for range min(workers, len(entries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res[i].ok = checkEntry(&res[i].out, entries[i], c)
				close(res[i].done)
			}
		}()
	}
	for i := range res {
		<-res[i].done
		w.Write(res[i].out.Bytes())
		if !res[i].ok {
			failed++
		}
	}
	return failed
}

// checkEntry searches e (twice under -selfcheck), writes its lines to
// w, and reports whether it came out as expected.
func checkEntry(w io.Writer, e suite.Entry, c settings) bool {
	opts := e.Opts
	if c.maxExec > 0 {
		opts.MaxExecutions = c.maxExec
	}
	opts.NoReduce = c.noReduce
	if c.progress > 0 {
		// Telemetry goes to stderr so stdout stays the stable
		// machine-readable report surface.
		opts.Progress = &explore.ProgressOptions{
			Every: c.progress,
			Sink:  func(s explore.Snapshot) { fmt.Fprintln(os.Stderr, s) },
		}
	}

	if c.selfCheck {
		start := time.Now()
		with, without, err := explore.SelfCheck(e.Scenario, opts)
		elapsed := time.Since(start).Round(time.Millisecond)
		if err != nil {
			fmt.Fprintf(w, "%-34s %-38s %v\n", e.Scenario.Name, "SELF-CHECK FAIL", elapsed)
			fmt.Fprintf(w, "    %v\n", err)
			return false
		}
		fmt.Fprintf(w, "%-34s %-38s %v\n", e.Scenario.Name, "SELF-CHECK PASS", elapsed)
		fmt.Fprintf(w, "    without reductions: %s\n", without.String())
		fmt.Fprintf(w, "    with reductions:    %s (%d boundaries, %d pruned; %d slept, %d blocked)\n",
			with.String(), with.Stats.DistinctBoundaries, with.Stats.PrunedStates, with.Stats.Slept, with.Stats.SleepBlocked)
		return true
	}

	start := time.Now()
	rep := explore.Run(e.Scenario, opts)
	elapsed := time.Since(start).Round(time.Millisecond)

	status, ok := e.Verdict(rep)
	fmt.Fprintf(w, "%-34s %-38s %v\n", e.Scenario.Name, status, elapsed)
	fmt.Fprintf(w, "    %s\n", rep.String())
	if rep.Err != nil {
		fmt.Fprintf(w, "    %v\n", rep.Err)
	}
	fmt.Fprintf(w, "    stats: %s\n", rep.Stats)
	if rep.Counterexample != nil && (!e.WantViolation || c.verbose) {
		if c.minimize {
			min := explore.Minimize(e.Scenario, rep.Counterexample.Choices)
			fmt.Fprintf(w, "    minimized to %d choices (from %d): %v\n",
				len(min), len(rep.Counterexample.Choices), min)
			if cx := explore.ReplayCx(e.Scenario, min); cx != nil {
				fmt.Fprintln(w, indent(cx.Format(), "    "))
			}
		} else {
			fmt.Fprintln(w, indent(rep.Counterexample.Format(), "    "))
		}
	}
	return ok
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
