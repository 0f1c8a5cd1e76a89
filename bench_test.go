package repro

// This file regenerates the paper's evaluation tables and figures as Go
// benchmarks — run `go test -bench=. -benchmem` and compare against the
// paper numbers recorded in EXPERIMENTS.md.
//
//	BenchmarkTable1CapabilityRules — the Table 1 ghost rules, executable
//	BenchmarkTable2LoC             — Perennial + Goose lines of code
//	BenchmarkTable3PatternCheck    — the four crash-safety patterns,
//	                                 checked exhaustively (and their LoC
//	                                 via BenchmarkTable3LoC)
//	BenchmarkTable4LoC             — Mailboat vs CMAIL effort
//	BenchmarkFig11Throughput       — mail-server throughput vs cores
//	BenchmarkBugHunt               — §9.5-style seeded bugs, time to find

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/loc"
	"repro/internal/machine"
	"repro/internal/postal"
	"repro/internal/suite"
)

// BenchmarkTable1CapabilityRules measures the cost of the executable
// Table 1 rules: a full lease lifecycle (allocate, deposit, update,
// crash, resynthesize) per iteration. Table 1 itself is a rule summary,
// so the "reproduction" is that every rule runs and is enforced.
func BenchmarkTable1CapabilityRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.Options{})
		c := core.NewCtx(m)
		var ms *core.Master
		res := m.RunEra(machine.SeqChooser{}, false, func(t *machine.T) {
			var ls *core.Lease
			ms, ls = c.NewDurable(t, "d[0]", uint64(0))
			c.DepositMaster(t, ms)
			c.Update(t, ms, ls, uint64(1), nil)
		})
		if res.Outcome != machine.Done {
			b.Fatal(res.Err)
		}
		m.CrashReset()
		res = m.RunEra(machine.SeqChooser{}, false, func(t *machine.T) {
			ms2, ls2 := ms.Resynthesize(t)
			c.Update(t, ms2, ls2, uint64(2), nil)
		})
		if res.Outcome != machine.Done {
			b.Fatal(res.Err)
		}
	}
}

func reportLoC(b *testing.B, rows []loc.Row) {
	b.Helper()
	for _, r := range rows {
		b.ReportMetric(float64(r.Measured), "loc:"+sanitize(r.Name))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '-', r == '(', r == ')':
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkTable2LoC regenerates Table 2 (Perennial and Goose lines of
// code) from this repository.
func BenchmarkTable2LoC(b *testing.B) {
	var rows []loc.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = loc.Table2(".")
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLoC(b, rows)
	b.Logf("\n%s", loc.FormatTable("Table 2", rows))
}

// BenchmarkTable3LoC regenerates Table 3's line counts.
func BenchmarkTable3LoC(b *testing.B) {
	var rows []loc.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = loc.Table3(".")
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLoC(b, rows)
	b.Logf("\n%s", loc.FormatTable("Table 3", rows))
}

// BenchmarkTable3PatternCheck runs each crash-safety pattern's
// exhaustive model-checking scenario — the executable content behind
// Table 3 (§9.1: "Can Perennial be used to verify a variety of
// crash-safety patterns?").
func BenchmarkTable3PatternCheck(b *testing.B) {
	for _, e := range suite.Verified() {
		e := e
		b.Run(e.Scenario.Name, func(b *testing.B) {
			var rep *explore.Report
			for i := 0; i < b.N; i++ {
				rep = explore.Run(e.Scenario, e.Opts)
				if !rep.OK() {
					b.Fatalf("violation:\n%s", rep.Counterexample.Format())
				}
			}
			b.ReportMetric(float64(rep.Executions), "executions")
			b.ReportMetric(float64(rep.CheckedStates), "checker-states")
		})
	}
}

// BenchmarkTable4LoC regenerates Table 4 (Mailboat vs CMAIL effort).
func BenchmarkTable4LoC(b *testing.B) {
	var rows []loc.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = loc.Table4(".")
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLoC(b, rows)
	b.Logf("\n%s", loc.FormatTable("Table 4", rows))
}

// BenchmarkFig11Throughput regenerates Figure 11 with the figure's one
// driver, postal.Sweep (what `go run ./cmd/mailbench` prints): for each
// core count and mail server, the closed-loop mixed workload's
// throughput on a RAM-backed store. Each point's req/s — the figure's
// y-axis — is reported as <server>/cores=<n>-req/s.
func BenchmarkFig11Throughput(b *testing.B) {
	var cores []int
	for _, c := range []int{1, 2, 4, 8, 12} {
		if c <= runtime.NumCPU() {
			cores = append(cores, c)
		}
	}
	var points []postal.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		// Fast mode: the paper's method ran Mailboat without durability
		// barriers, and the longitudinal series must keep measuring the
		// same thing.
		points, err = postal.Sweep(postal.SweepOptions{
			Cores:            cores,
			Users:            100,
			RequestsPerPoint: 6000,
			Seed:             7,
			NoFsync:          true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Result.Errors > 0 {
			b.Fatalf("%s at %d cores: workload errors: %s", p.Server, p.Cores, p.Result)
		}
		b.ReportMetric(p.Result.Throughput, fmt.Sprintf("%s/cores=%d-req/s", p.Server, p.Cores))
	}
}

// BenchmarkBugHunt measures how quickly the checker finds each seeded
// bug (the §9.5 discussion, mechanized): executions-to-counterexample.
func BenchmarkBugHunt(b *testing.B) {
	for _, e := range suite.Bugs() {
		e := e
		b.Run(e.Scenario.Name, func(b *testing.B) {
			var rep *explore.Report
			for i := 0; i < b.N; i++ {
				rep = explore.Run(e.Scenario, e.Opts)
				if rep.OK() {
					b.Fatal("seeded bug not found")
				}
			}
			b.ReportMetric(float64(rep.Executions), "executions-to-bug")
		})
	}
}
