package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: what
// each mechanism buys, measured.
//
//	BenchmarkAblationCheckerMemo     — memoized vs. plain backtracking
//	                                   refinement checking
//	BenchmarkAblationRandPolicy      — deterministic fresh-name policy
//	                                   vs. searching over random names
//	BenchmarkAblationSearchStrategy  — systematic DFS vs. randomized
//	                                   stress, time to find a seeded bug

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/history"
	"repro/internal/mailboat"
	"repro/internal/spec"
)

// crossHistory builds a maximally contended, unsatisfiable history:
// n+1 overlapping deliveries into a mailbox with only n free IDs. The
// checker must exhaust the whole interleaving space to reject it, which
// is where memoization pays off (identical mailbox states reached in
// different orders collapse).
func crossHistory(n int) (spec.Interface, history.History) {
	sp := mailboat.Spec(mailboat.Config{Users: 1, RandBound: uint64(n)})
	var h history.History
	for i := 0; i <= n; i++ {
		h = append(h, history.Event{Kind: history.Invoke, ID: history.OpID(i),
			Op: mailboat.OpDeliver{User: 0, Msg: "m"}})
	}
	for i := 0; i <= n; i++ {
		h = append(h, history.Event{Kind: history.Return, ID: history.OpID(i),
			Op: mailboat.OpDeliver{User: 0, Msg: "m"}, Ret: true})
	}
	return sp, h
}

// TestCrossHistoryStatesExplored pins the size of the refinement search
// on the contended fixture: the checker's representation (an OpID-ordered
// slice, a bitset, byte-slice memo keys) is free to change, the search it
// performs — candidate order, memo hits — is not.
func TestCrossHistoryStatesExplored(t *testing.T) {
	sp, h := crossHistory(4)
	for _, c := range []struct {
		opts history.Options
		want int
	}{
		{history.Options{}, 1695},
		{history.Options{DisableMemo: true}, 260554},
	} {
		res := history.CheckWith(sp, h, c.opts)
		if res.OK || res.StatesExplored != c.want {
			t.Errorf("%+v: OK=%v, %d states explored, want a rejection after %d", c.opts, res.OK, res.StatesExplored, c.want)
		}
	}
}

// BenchmarkAblationCheckerMemo compares the refinement checker with and
// without search-state memoization on a contended history.
func BenchmarkAblationCheckerMemo(b *testing.B) {
	sp, h := crossHistory(4)
	for _, cfg := range []struct {
		name string
		opts history.Options
	}{
		{"memoized", history.Options{}},
		{"no-memo", history.Options{DisableMemo: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var res history.Result
			for i := 0; i < b.N; i++ {
				res = history.CheckWith(sp, h, cfg.opts)
				if res.OK {
					b.Fatal("over-full mailbox history accepted")
				}
			}
			b.ReportMetric(float64(res.StatesExplored), "states")
		})
	}
}

// BenchmarkAblationRandPolicy compares the systematic search-space size
// for Mailboat with the deterministic fresh-name policy (the default)
// against searching over every random name choice.
func BenchmarkAblationRandPolicy(b *testing.B) {
	mk := func() *explore.Scenario {
		return mailboat.Scenario("ablation-rand", mailboat.VariantVerified, mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 2},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "m"}},
			PostPickups: true,
		})
	}
	b.Run("fresh-name-policy", func(b *testing.B) {
		var rep *explore.Report
		for i := 0; i < b.N; i++ {
			rep = explore.Run(mk(), explore.Options{MaxExecutions: 100000})
			if !rep.OK() || !rep.Complete {
				b.Fatalf("rep=%v", rep)
			}
		}
		b.ReportMetric(float64(rep.Executions), "executions")
	})
	b.Run("search-over-rand", func(b *testing.B) {
		var rep *explore.Report
		for i := 0; i < b.N; i++ {
			s := mk()
			s.RandPolicy = nil // every random name becomes a search branch
			rep = explore.Run(s, explore.Options{MaxExecutions: 100000})
			if !rep.OK() {
				b.Fatalf("rep=%v", rep)
			}
		}
		b.ReportMetric(float64(rep.Executions), "executions")
	})
}

// BenchmarkAblationSearchStrategy compares systematic DFS against pure
// randomized stress on a seeded bug (the zeroing recovery), reporting
// executions until the counterexample.
func BenchmarkAblationSearchStrategy(b *testing.B) {
	mk := func() *explore.Scenario {
		return mailboat.Scenario("ablation-strategy", mailboat.VariantRecoverWipes, mailboat.ScenarioOptions{
			Config:      mailboat.Config{Users: 1, RandBound: 3},
			Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "keep"}, {User: 0, Msg: "also"}},
			MaxCrashes:  1,
			PostPickups: true,
		})
	}
	b.Run("systematic-dfs", func(b *testing.B) {
		var rep *explore.Report
		for i := 0; i < b.N; i++ {
			rep = explore.Run(mk(), explore.Options{MaxExecutions: 100000})
			if rep.OK() {
				b.Fatal("bug not found")
			}
		}
		b.ReportMetric(float64(rep.Executions), "executions-to-bug")
	})
	b.Run("randomized-stress", func(b *testing.B) {
		var rep *explore.Report
		for i := 0; i < b.N; i++ {
			rep = explore.Run(mk(), explore.Options{
				MaxExecutions:    1, // effectively stress-only
				StressExecutions: 100000,
				StressSeed:       int64(i + 1),
			})
			if rep.OK() {
				b.Fatal("bug not found under stress")
			}
		}
		b.ReportMetric(float64(rep.Executions), "executions-to-bug")
	})
}
