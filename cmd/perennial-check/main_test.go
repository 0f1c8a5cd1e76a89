package main

import (
	"flag"
	"strings"
	"testing"
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
	want := "cpuprofile max memprofile min nodedup pattern progress selfcheck v workers"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("perennial-check flags are\n  %s\nwant\n  %s", g, want)
	}
}
