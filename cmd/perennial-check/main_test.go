package main

import (
	"flag"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/suite"
)

// TestFlagSurface pins perennial-check's flag names: selecting entries,
// steering and explaining the search, profiling it — and no mode that
// writes measurements (those are `go run ./bench --workload
// check-suite`). A re-accreted mode shows up here as a diff.
func TestFlagSurface(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	want := "cpuprofile max memprofile min noreduce pattern progress selfcheck v workers"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("perennial-check flags are\n  %s\nwant\n  %s", g, want)
	}
}

// elapsed and rates match what perennial-check prints that is not a
// function of the search: an entry line's elapsed column, and the stats
// line's duration and rates. CI strips the same with sed.
var (
	elapsed = regexp.MustCompile(`(?m)^(\S.*?) +[0-9.]+(µs|ms|s)$`)
	rates   = regexp.MustCompile(`(?m)^    stats: [0-9.]+s, [0-9]+ execs/s, [0-9]+ states/s, `)
)

func stripTimings(s string) string {
	return rates.ReplaceAllString(elapsed.ReplaceAllString(s, "$1"), "    stats: ")
}

// TestOutputIsTheSameAtEveryWorkerCount: entries run concurrently, each
// one sequential search, and print in suite order, so what
// perennial-check -v -min prints for a mix of verified entries and
// seeded bugs is byte for byte the same at -workers 1 and 4, but for
// the timings.
func TestOutputIsTheSameAtEveryWorkerCount(t *testing.T) {
	var entries []suite.Entry
	for _, e := range suite.All() {
		name := e.Scenario.Name
		if strings.HasPrefix(name, "rd/") || strings.HasPrefix(name, "wal/") || slices.Contains([]string{
			"mb/deliver+pickup+crash", "mb/sync-bug:ack-before-sync", "mb/repl-bug:ack-before-backup",
		}, name) {
			entries = append(entries, e)
		}
	}
	if len(entries) != 9 {
		t.Fatalf("selected %d entries, want 9", len(entries))
	}
	var outs []string
	for _, workers := range []int{1, 4} {
		var b strings.Builder
		if failed := checkAll(&b, entries, workers, settings{verbose: true, minimize: true}); failed != 0 {
			t.Fatalf("-workers %d: %d entries failed:\n%s", workers, failed, b.String())
		}
		outs = append(outs, stripTimings(b.String()))
	}
	if outs[0] != outs[1] {
		t.Errorf("-workers 1 printed\n%s\n-workers 4 printed\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "minimized to") || strings.Contains(outs[0], "ms\n") {
		t.Errorf("want the bugs' minimized counterexamples and no timings:\n%s", outs[0])
	}
}
