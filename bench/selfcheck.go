package main

import (
	"fmt"
	"io"
	"math"
)

// relWorse is how much worse b is than a, as a share of a, in the
// metric's own direction: positive means b is worse.
func relWorse(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck is the acceptance criterion as a command: the end-to-end
// set is run twice, back to back, on one seed, and for every metric ×
// workload the two values must agree within the metric's bound. A pair
// that does not is UNRESOLVED — on this host the benchmark cannot tell
// "unchanged" from "changed" for it — which is also how a later change
// reads the table when it compares two revisions.
func selfcheck(o *options, h header, stdout, stderr io.Writer) int {
	set := *o
	set.traced, set.jsonPath = false, ""
	var sets [2][]*result
	for i := range sets {
		fmt.Fprintf(stdout, "selfcheck: running set %d of 2 (seed %d)\n", i+1, o.seed)
		rs, ok := runAll(&set, io.Discard, stderr)
		if !ok || len(rs) != len(workloadDefs) {
			fmt.Fprintln(stdout, "selfcheck: FAILED — a workload did not verify its outputs; run it alone to see why")
			return 1
		}
		sets[i] = rs
	}
	fmt.Fprintf(stdout, "%-14s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "")
	unresolved := 0
	for w := range workloadDefs {
		a, b := sets[0][w], sets[1][w]
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value
			rel := relWorse(d, va, vb)
			verdict := "PASS"
			if math.Abs(rel) > d.Bound {
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Fprintf(stdout, "%-14s %-28s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				a.Workload, d.Name, va, vb, 100*rel, 100*d.Bound, verdict)
		}
		// The failure ratio's bound is absolute.
		va, vb := a.EndToEnd[opsFailedRatio].Value, b.EndToEnd[opsFailedRatio].Value
		verdict := "PASS"
		if math.Abs(vb-va) > 0.001 {
			verdict = "UNRESOLVED"
			unresolved++
		}
		fmt.Fprintf(stdout, "%-14s %-28s %14.6g %14.6g %+9.4f %7s  %s\n", a.Workload, opsFailedRatio, va, vb, vb-va, "+0.001", verdict)
	}
	if o.jsonPath != "" {
		if err := writeRecord(o.jsonPath, record{Header: h, Workloads: append(sets[0], sets[1]...)}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d metric x workload pairs UNRESOLVED\n", unresolved)
		return 3
	}
	fmt.Fprintln(stdout, "selfcheck: all PASS")
	return 0
}
