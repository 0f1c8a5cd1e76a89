package suite

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/explore"
	"repro/internal/mailboat"
)

// TestVerifiedSuiteAllClean is the test-suite form of
// cmd/perennial-check: every verified artifact's scenario must check
// clean.
func TestVerifiedSuiteAllClean(t *testing.T) {
	before := runtime.NumGoroutine()
	defer func() {
		// Every simulated thread of every execution is gone again: none
		// is left parked for later garbage collections to scan.
		if after := runtime.NumGoroutine(); after > before+2 {
			t.Errorf("the verified pass left %d goroutines, started with %d", after, before)
		}
	}()
	for _, e := range Verified() {
		e := e
		t.Run(e.Scenario.Name, func(t *testing.T) {
			opts := e.Opts
			if testing.Short() {
				opts.MaxExecutions = 1000
			}
			rep := explore.Run(e.Scenario, opts)
			t.Logf("%s", rep)
			if !rep.OK() {
				t.Fatalf("violation:\n%s", rep.Counterexample.Format())
			}
		})
	}
}

// TestBugSuiteAllFound requires each seeded bug to produce a
// counterexample.
func TestBugSuiteAllFound(t *testing.T) {
	for _, e := range Bugs() {
		e := e
		t.Run(e.Scenario.Name, func(t *testing.T) {
			rep := explore.Run(e.Scenario, e.Opts)
			t.Logf("%s", rep)
			if rep.OK() {
				t.Fatal("seeded bug not found")
			}
			if len(rep.Counterexample.Choices) == 0 {
				t.Fatal("counterexample has no reproduction choices")
			}
		})
	}
}

// TestCounterexamplesAreTheirReplay: the search keeps no trace and
// rebuilds a failing execution's trace, schedule and history by
// replaying its choices, so for every seeded bug the counterexample the
// search reports is byte for byte what ReplayCx prints, sequential or
// parallel, and the sequential search convicts each entry in exactly its
// pinned number of executions (a faster checker must not be a different
// one, and a mutation rebuilt from the production stages must be the
// same mutation).
func TestCounterexamplesAreTheirReplay(t *testing.T) {
	// 564 in all (bench's explore.bug_execs_total): the 1,047 of the
	// trace-free search, less 8 on mb/integrity-bug:no-verify-resilver —
	// 13, not 21, since boot recovery reads each file once per replica,
	// so the recovery era has fewer steps and the DFS reaches the
	// corrupting branch sooner — less 481 on
	// mb/nospace-bug:gc-eats-live-spool, whose recorded deliveries draw
	// from three names, not four (76, not 557), plus the 6 of
	// mb/prefix-bug:recover-drops-torn.
	pinned := map[string]int{
		"rd/bug:no-recovery":                  8,
		"rd/bug:zeroing-recovery":             2,
		"sc/bug:in-place-write":               3,
		"wal/bug:recover-clear-only":          4,
		"gc/bug:racy-read":                    10,
		"journal/bug:recover-skips-redo":      4,
		"mb/bug:unspooled-delivery":           41,
		"mb/bug:buffered-fs-no-fsync":         2,
		"mb/mirror-bug:no-resilver":           6,
		"mb/integrity-bug:trust-read":         2,
		"mb/integrity-bug:no-verify-resilver": 13,
		"mb/torn-bug:replay-spool":            7,
		"mb/sync-bug:ack-before-sync":         2,
		"mb/sync-bug:recover-trusts-cache":    2,
		"mb/nospace-bug:ack-after-enospc":     50,
		"mb/nospace-bug:gc-eats-live-spool":   76,
		"mb/prefix-bug:recover-drops-torn":    6,
		"mb/repl-bug:ack-before-backup":       9,
		"mb/repl-bug:resync-skips-epoch":      317,
	}
	bugs := Bugs()
	if len(bugs) != len(pinned) {
		t.Errorf("%d seeded bugs, %d pinned counts", len(bugs), len(pinned))
	}
	for _, e := range bugs {
		for _, workers := range []int{1, 4} {
			opts := e.Opts
			opts.Workers = workers
			rep := explore.Run(e.Scenario, opts)
			if rep.OK() {
				t.Fatalf("%s: seeded bug not found at Workers: %d", e.Scenario.Name, workers)
			}
			cx := rep.Counterexample
			if len(cx.Trace) == 0 || len(cx.Schedule) == 0 {
				t.Fatalf("%s: counterexample has %d trace lines and %d schedule steps", e.Scenario.Name, len(cx.Trace), len(cx.Schedule))
			}
			replay := explore.ReplayCx(e.Scenario, cx.Choices)
			if replay == nil {
				t.Fatalf("%s: counterexample does not replay", e.Scenario.Name)
			}
			if got, want := cx.Format(), replay.Format(); got != want {
				t.Fatalf("%s, Workers: %d: search and replay differ\nsearch:\n%s\nreplay:\n%s", e.Scenario.Name, workers, got, want)
			}
			if want := pinned[e.Scenario.Name]; workers == 1 && rep.Executions != want {
				t.Errorf("%s: sequential conviction took %d executions, want %d", e.Scenario.Name, rep.Executions, want)
			}
		}
	}
}

// TestNoChoicePointIsReseated: an execution is a function of its choice
// sequence, so a replayed prefix must offer, point for point, the
// branching factors it was recorded with. A search worker carries its
// carrier coroutines and recorder buffers from one execution to the
// next; anything an execution could observe leaking through them would
// show here first, as a re-seated choice point (explore.Stats.Reseats).
func TestNoChoicePointIsReseated(t *testing.T) {
	for _, e := range All() {
		for _, workers := range []int{1, 4} {
			opts := e.Opts
			opts.Workers = workers
			// A bug search stops at its conviction, so -short caps only
			// the searches that want none.
			if testing.Short() && !e.WantViolation {
				opts.MaxExecutions = 1000
			}
			rep := explore.Run(e.Scenario, opts)
			if rep.OK() == e.WantViolation {
				t.Errorf("%s, Workers: %d: wrong verdict: %s", e.Scenario.Name, workers, rep)
			}
			if rep.Stats.Reseats != 0 {
				t.Errorf("%s, Workers: %d: %d choice points re-seated: %s", e.Scenario.Name, workers, rep.Stats.Reseats, rep.Stats)
			}
		}
	}
}

// TestParallelSearchSharesSpecStates: the workers of a parallel search
// share the scenario's spec, and with it Spec(cfg).Init and every state
// part later states share with it. Under -race (CI runs it at
// -cpu=1,4), mb/deliver+pickup+crash at Workers: 4 catches a write into
// any of them. A search hands work out through a mutex after its first
// execution, which would order a write made once, on first use, before
// every other worker's read; so two searches of one freshly built
// scenario run at once, and their first executions race each other.
func TestParallelSearchSharesSpecStates(t *testing.T) {
	for _, e := range Verified() {
		if e.Scenario.Name != "mb/deliver+pickup+crash" {
			continue
		}
		opts := e.Opts
		opts.Workers, opts.MaxExecutions = 4, 500
		reps := make([]*explore.Report, 2)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i] = explore.Run(e.Scenario, opts)
			}()
		}
		wg.Wait()
		for _, rep := range reps {
			if !rep.OK() || rep.CrashedExecutions == 0 {
				t.Fatalf("%s", rep)
			}
		}
		return
	}
	t.Fatal("mb/deliver+pickup+crash missing from the verified suite")
}

// TestDedupSelfCheckMailboatMirror runs the dedup soundness self-check
// (explore.SelfCheckDedup) on the mirrored-store scenario — the suite's
// richest fingerprint, covering the filesystem model, fault latches,
// chooser-policy budgets, and mirror control state. CI runs this at the
// -short budget; the full budget matches cmd/perennial-check -selfcheck.
func TestDedupSelfCheckMailboatMirror(t *testing.T) {
	for _, e := range Verified() {
		if e.Pattern != "mailboat-mirror" {
			continue
		}
		opts := e.Opts
		if testing.Short() {
			opts.MaxExecutions = 1000
		}
		with, without, err := explore.SelfCheckDedup(e.Scenario, opts)
		if err != nil {
			t.Fatalf("self-check failed: %v", err)
		}
		t.Logf("without dedup: %s", without)
		t.Logf("with dedup:    %s (%d boundaries, %d pruned)",
			with, with.Stats.DistinctBoundaries, with.Stats.PrunedStates)
		return
	}
	t.Fatal("mailboat-mirror entry missing from the verified suite")
}

// TestEveryPropertyIsChecked: each claim a mail-store scenario can make
// (a mailboat.Property row: the spec its histories must refine) is held
// by at least one verified entry, and has a seeded bug the history check
// convicts against that spec — a refinement failure, not a machine
// violation that would have shown under any claim. (The verdicts
// themselves are TestVerifiedSuiteAllClean's and TestBugSuiteAllFound's.)
func TestEveryPropertyIsChecked(t *testing.T) {
	property := func(r mailboatEntry) *mailboat.Property {
		if r.opts.Property == nil {
			return mailboat.Refinement
		}
		return r.opts.Property
	}
	for _, p := range mailboat.Properties {
		verified := 0
		for _, r := range mailboatVerified {
			if property(r) == p {
				verified++
			}
		}
		convicted := ""
		for _, r := range mailboatBugs {
			if property(r) != p || convicted != "" {
				continue
			}
			rep := explore.Run(mailboat.Scenario(r.name, r.variant, r.opts), explore.Options{MaxExecutions: r.max, Workers: 1})
			if !rep.OK() && strings.HasPrefix(rep.Counterexample.Reason, "refinement failure") {
				convicted = r.name
			}
		}
		if verified == 0 || convicted == "" {
			t.Errorf("property %s: %d verified entries, no seeded bug convicted by a refinement failure", p.Name, verified)
		}
		t.Logf("property %s: %d verified entries, %s convicted by a refinement failure", p.Name, verified, convicted)
	}
}

// scenarioParts renders DESIGN.md §4m's table from the suite: for each
// of the four parts of a mail-store scenario, its zero value, and each
// other value some entry gives it with the entries that do (a property
// with the name of its spec).
func scenarioParts() []string {
	parts := []struct {
		name  string
		value func(o mailboat.ScenarioOptions) string
	}{
		{"crash model", func(o mailboat.ScenarioOptions) string {
			return [...]string{"`Strict`", "`Buffered`", "`Writeback`"}[o.Crash]
		}},
		{"stack", func(o mailboat.ScenarioOptions) string {
			return [...]string{"one backend", "`Checksum`", "`Mirror`", "`Mirror` + `Checksum`"}[btoi(o.Mirror)*2+btoi(o.Checksum)]
		}},
		{"fault budget", func(o mailboat.ScenarioOptions) string {
			if o.Faults.Budget == 0 {
				return "none"
			}
			var classes []string
			for op := range o.Faults.Ops {
				classes = append(classes, op.String())
			}
			sort.Strings(classes)
			return fmt.Sprintf("%d × %s", o.Faults.Budget, strings.Join(classes, ", "))
		}},
		{"property", func(o mailboat.ScenarioOptions) string {
			if o.Property == nil {
				return "`Refinement`"
			}
			spec := mailboat.Scenario("parts", mailboat.VariantVerified, o).Spec.Name()
			return "`" + strings.ToUpper(o.Property.Name[:1]) + o.Property.Name[1:] + "`: `" + spec + "`"
		}},
	}
	entries := append(append([]mailboatEntry{}, mailboatVerified...), mailboatBugs...)
	var rows []string
	for _, part := range parts {
		zero := part.value(mailboat.ScenarioOptions{})
		var values []string
		users := map[string][]string{}
		for _, e := range entries {
			v := part.value(e.opts)
			if users[v] == nil && v != zero {
				values = append(values, v)
			}
			users[v] = append(users[v], strings.TrimPrefix(e.name, "mb/"))
		}
		for i, v := range values {
			name := ""
			if i == 0 {
				name = fmt.Sprintf("%s (else %s)", part.name, zero)
			}
			rows = append(rows, fmt.Sprintf("| %s | %s | %s |", name, v, strings.Join(users[v], ", ")))
		}
	}
	return rows
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestScenarioPartsMatchDesignDoc pins DESIGN.md §4m's four-part table
// to the suite's entries: the rows scenarioParts renders, verbatim and
// in order, and no row besides.
func TestScenarioPartsMatchDesignDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- scenario-parts:begin -->\n")
	table, _, ok2 := strings.Cut(rest, "<!-- scenario-parts:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no scenario-parts table")
	}
	want := "| part | value | suite entries (`mb/…`) |\n|---|---|---|\n" + strings.Join(scenarioParts(), "\n") + "\n"
	if table != want {
		t.Errorf("DESIGN.md §4m's table is\n%s\nthe suite's entries say\n%s", table, want)
	}
}

func TestSuiteShape(t *testing.T) {
	v, b := Verified(), Bugs()
	if len(v) < 5 {
		t.Fatalf("verified suite too small: %d", len(v))
	}
	if len(b) < 5 {
		t.Fatalf("bug suite too small: %d", len(b))
	}
	patterns := map[string]bool{}
	for _, e := range All() {
		patterns[e.Pattern] = true
		if e.Scenario == nil || e.Scenario.Name == "" {
			t.Fatal("scenario missing a name")
		}
	}
	for _, want := range []string{"replicated-disk", "shadow-copy", "wal", "group-commit", "journal", "mailboat"} {
		if !patterns[want] {
			t.Fatalf("pattern %q missing from the suite", want)
		}
	}
}

// canonicalMailboat is the construction the budget below prices: the
// options are built outside the measured call, as a suite entry's
// literals are not.
var canonicalMailboat = mailboat.ScenarioOptions{
	Config:      mailboat.Config{Users: 2, RandBound: 2},
	Delivers:    []mailboat.OpDeliver{{User: 0, Msg: "a"}},
	PickupUsers: []uint64{0},
	MaxCrashes:  1,
	PostPickups: true,
}

// TestConstructionBudget guards the benchmark's check-suite/setup_s,
// which times Verified() + Bugs() and nothing else: tens of
// microseconds, of which the mailboat.Scenario calls are the larger
// half, so half a dozen extra allocations per scenario breach its 25 %
// bound. Whatever a scenario derives from its options (directory lists,
// the gfs.StackSpec, policies, eligibility maps) belongs in Setup, and
// option validation must allocate nothing on the success path.
func TestConstructionBudget(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Verified(); Bugs() }); n > 519 {
		t.Errorf("Verified()+Bugs() allocates %.0f objects, budget 519", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		mailboat.Scenario("budget", mailboat.VariantVerified, canonicalMailboat)
	}); n > 18 {
		t.Errorf("one mailboat.Scenario allocates %.0f objects, budget 18", n)
	}
}

// BenchmarkConstruct is check-suite/setup_s under the go tool:
// `go test -run '^$' -bench Construct -benchmem ./internal/suite`.
func BenchmarkConstruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Verified()
		Bugs()
	}
}
