package suite

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/explore"
	"repro/internal/loc"
	"repro/internal/machine"
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
	var shapes []string
	for _, e := range Verified() {
		e := e
		t.Run(e.Scenario.Name, func(t *testing.T) {
			opts := e.Opts
			if testing.Short() {
				opts.MaxExecutions = 1000
			}
			rep := explore.Run(e.Scenario, opts)
			t.Logf("%s", rep)
			mustVerdict(t, e, rep)
			shapes = append(shapes, searchShape(rep, nil))
		})
	}
	if !testing.Short() {
		matchSearchGolden(t, shapes)
	}
}

// TestBugSuiteAllFound requires each seeded bug to produce a
// counterexample.
func TestBugSuiteAllFound(t *testing.T) {
	var shapes []string
	for _, e := range Bugs() {
		e := e
		t.Run(e.Scenario.Name, func(t *testing.T) {
			rep := explore.Run(e.Scenario, e.Opts)
			t.Logf("%s", rep)
			mustVerdict(t, e, rep)
			if len(rep.Counterexample.Choices) == 0 {
				t.Fatal("counterexample has no reproduction choices")
			}
			shapes = append(shapes, searchShape(rep, explore.Minimize(e.Scenario, rep.Counterexample.Choices)))
		})
	}
	matchSearchGolden(t, shapes)
}

// mustVerdict fails t unless rep is the verdict e wants.
func mustVerdict(t *testing.T, e Entry, rep *explore.Report) {
	t.Helper()
	status, ok := e.Verdict(rep)
	switch {
	case ok:
		return
	case rep.Err != nil:
		t.Fatalf("%s: %v", status, rep.Err)
	case rep.Counterexample != nil:
		t.Fatalf("%s:\n%s", status, rep.Counterexample.Format())
	}
	t.Fatalf("%s: %s", status, rep)
}

// forgetful is a device whose Save's restore forgets the crash count
// its Crash bumps, the mistake of a device whose restore misses a field
// its Crash changes: each crash evaluated in place leaves the count one
// higher than the crash taken will see.
type forgetful struct{ n uint64 }

func (f *forgetful) Crash() { f.n++ }

func (f *forgetful) AppendDurable(b []byte) []byte { return machine.AppendUint64(b, f.n) }

func (f *forgetful) Save() (restore func()) { return func() {} }

// TestCheckerErrorIsNoVerdict: a checker error — a crash that reaches
// another boundary than the one evaluated in place for it — is no
// verdict. It fails a verified entry, and it convicts no seeded bug:
// Verdict, which perennial-check and this package's verdict checks go
// through, fails both.
func TestCheckerErrorIsNoVerdict(t *testing.T) {
	for _, name := range []string{"mb/deliver+pickup+crash", "mb/sync-bug:ack-before-sync"} {
		i := slices.IndexFunc(All(), func(e Entry) bool { return e.Scenario.Name == name })
		if i < 0 {
			t.Fatalf("no entry %s", name)
		}
		e := All()[i]
		sc := *e.Scenario
		setup := sc.Setup
		sc.Setup = func(m *machine.Machine) any {
			w := setup(m)
			m.RegisterDevice(&forgetful{})
			return w
		}
		e.Scenario = &sc
		rep := explore.Run(e.Scenario, e.Opts)
		status, ok := e.Verdict(rep)
		if ok || status != "FAIL (checker error)" || rep.Err == nil || rep.Counterexample != nil {
			t.Errorf("%s: %s, %v: %s", name, status, rep.Err, rep)
		}
		t.Logf("%s: %v", name, rep.Err)
	}
}

const searchGolden = "testdata/search.golden"

// searchShape is an entry's line of testdata/search.golden: what its
// search explored, counted every way the report counts it,
// and for a seeded bug the minimized counterexample's choices. A change
// to how an execution runs, not to what it runs, leaves every line as it
// is.
func searchShape(rep *explore.Report, min []int) string {
	st := rep.Stats
	line := fmt.Sprintf("%s execs=%d crashed=%d states=%d boundaries=%d pruned=%d verdicts=%d/%d",
		rep.Scenario, rep.Executions, rep.CrashedExecutions, rep.CheckedStates,
		st.DistinctBoundaries, st.PrunedStates, st.VerdictsDistinct, st.VerdictsReused)
	if min != nil {
		line += fmt.Sprintf(" min=%v", min)
	}
	return line
}

// matchSearchGolden compares each searchShape line with the golden's
// line for the same entry. -update rewrites those lines and keeps the
// others; regenerate with
// go test -run 'TestVerifiedSuiteAllClean|TestBugSuiteAllFound' -update ./internal/suite.
func matchSearchGolden(t *testing.T, got []string) {
	t.Helper()
	data, err := os.ReadFile(searchGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	entry := func(line string) string { name, _, _ := strings.Cut(line, " "); return name }
	for _, line := range got {
		i := slices.IndexFunc(want, func(w string) bool { return entry(w) == entry(line) })
		switch {
		case *update && i < 0:
			want = append(want, line)
		case *update:
			want[i] = line
		case i < 0:
			t.Errorf("%s is not in %s", entry(line), searchGolden)
		case want[i] != line:
			t.Errorf("search shape moved\n got: %s\nwant: %s", line, want[i])
		}
	}
	if *update {
		want = slices.DeleteFunc(want, func(w string) bool { return w == "" })
		if err := os.WriteFile(searchGolden, []byte(strings.Join(want, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCounterexamplesAreTheirReplay: the search keeps no trace and
// rebuilds a failing execution's trace, schedule and history by
// replaying its choices, so for every seeded bug the counterexample the
// search reports is byte for byte what ReplayCx prints, and the search
// convicts each entry in exactly its pinned number of executions (a faster checker must not be a different
// one, and a mutation rebuilt from the production stages must be the
// same mutation).
func TestCounterexamplesAreTheirReplay(t *testing.T) {
	// 339 in all (bench's explore.bug_execs_total): the 1,047 of the
	// trace-free search, less 8 on mb/integrity-bug:no-verify-resilver —
	// 13, not 21, since boot recovery reads each file once per replica,
	// so the recovery era has fewer steps and the DFS reaches the
	// corrupting branch sooner — less 481 on
	// mb/nospace-bug:gc-eats-live-spool, whose recorded deliveries draw
	// from three names, not four (76, not 557), plus the 6 of
	// mb/prefix-bug:recover-drops-torn; then less 72 that sleep sets skip
	// as reorderings of executions already run (gc/bug:racy-read 10 → 4,
	// mb/bug:unspooled-delivery 41 → 8, gc-eats-live-spool 76 → 43); then
	// less 121 that crash-boundary dedup prunes once the step count is out
	// of its frontier (mb/nospace-bug:ack-after-enospc 50 → 47,
	// mb/repl-bug:resync-skips-epoch 317 → 199); then less 32 crash
	// states skipped in place, without an execution, because another
	// prefix owned their boundary (mb/torn-bug:replay-spool 7 → 6,
	// ack-after-enospc 47 → 42, resync-skips-epoch 199 → 173).
	pinned := map[string]int{
		"rd/bug:no-recovery":                  8,
		"rd/bug:zeroing-recovery":             2,
		"sc/bug:in-place-write":               3,
		"wal/bug:recover-clear-only":          4,
		"gc/bug:racy-read":                    4,
		"journal/bug:recover-skips-redo":      4,
		"mb/bug:unspooled-delivery":           8,
		"mb/bug:buffered-fs-no-fsync":         2,
		"mb/mirror-bug:no-resilver":           6,
		"mb/integrity-bug:trust-read":         2,
		"mb/integrity-bug:no-verify-resilver": 13,
		"mb/torn-bug:replay-spool":            6,
		"mb/sync-bug:ack-before-sync":         2,
		"mb/sync-bug:recover-trusts-cache":    2,
		"mb/nospace-bug:ack-after-enospc":     42,
		"mb/nospace-bug:gc-eats-live-spool":   43,
		"mb/prefix-bug:recover-drops-torn":    6,
		"mb/repl-bug:ack-before-backup":       9,
		"mb/repl-bug:resync-skips-epoch":      173,
	}
	bugs := Bugs()
	if len(bugs) != len(pinned) {
		t.Errorf("%d seeded bugs, %d pinned counts", len(bugs), len(pinned))
	}
	for _, e := range bugs {
		rep := explore.Run(e.Scenario, e.Opts)
		if status, ok := e.Verdict(rep); !ok {
			t.Fatalf("%s: %s: %s", e.Scenario.Name, status, rep)
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
			t.Fatalf("%s: search and replay differ\nsearch:\n%s\nreplay:\n%s", e.Scenario.Name, got, want)
		}
		if want := pinned[e.Scenario.Name]; rep.Executions != want {
			t.Errorf("%s: conviction took %d executions, want %d", e.Scenario.Name, rep.Executions, want)
		}
	}
}

// TestNoChoicePointIsReseated: an execution is a function of its choice
// sequence, so a replayed prefix must offer, point for point, the
// branching factors it was recorded with. A search carries its carrier
// coroutines and recorder buffers from one execution to the next; anything an execution could observe leaking through them would
// show here first, as a re-seated choice point (explore.Stats.Reseats).
func TestNoChoicePointIsReseated(t *testing.T) {
	for _, e := range All() {
		opts := e.Opts
		// A bug search stops at its conviction, so -short caps only the
		// searches that want none.
		if testing.Short() && !e.WantViolation {
			opts.MaxExecutions = 1000
		}
		rep := explore.Run(e.Scenario, opts)
		if status, ok := e.Verdict(rep); !ok {
			t.Errorf("%s: %s: %s", e.Scenario.Name, status, rep)
		}
		if rep.Stats.Reseats != 0 {
			t.Errorf("%s: %d choice points re-seated: %s", e.Scenario.Name, rep.Stats.Reseats, rep.Stats)
		}
	}
}

// TestParallelSearchSharesSpecStates: perennial-check searches several
// entries at once, so whatever two mail entries' searches share — the
// spec, history and machine packages' state, and any cache a spec step
// keeps — must be safe to share. Under -race (CI runs it at -cpu=1,4),
// two different mail entries searched at once catch a write into any of
// it, from their first executions on.
func TestParallelSearchSharesSpecStates(t *testing.T) {
	names := []string{"mb/deliver+pickup+crash", "mb/writeback+sync-discipline"}
	var entries []Entry
	for _, e := range Verified() {
		if slices.Contains(names, e.Scenario.Name) {
			entries = append(entries, e)
		}
	}
	if len(entries) != len(names) {
		t.Fatalf("the verified suite has %d of %v", len(entries), names)
	}
	reps := make([]*explore.Report, len(entries))
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := e.Opts
			opts.MaxExecutions = 500
			reps[i] = explore.Run(e.Scenario, opts)
		}()
	}
	wg.Wait()
	for _, rep := range reps {
		if !rep.OK() || rep.CrashedExecutions == 0 {
			t.Errorf("%s", rep)
		}
	}
}

// TestSelfCheckCompleteEntries is the witness of both reductions over
// the suite (DESIGN.md "Sleep sets"): every verified entry whose reduced
// search completes at its own budget is searched again
// without them, and the two searches must agree on the verdict and on
// the set of outcomes (explore.SelfCheck). The plain searches complete
// within 250,000 executions but for three: mb/writeback+prefix-contract's
// is 1.73M, and the two mb/replicated entries' run past 2M. There every
// outcome the first 50,000 plain executions reach must be among the
// reduced search's. A budget-bounded entry has no set to compare. CI's
// checker-par job runs it; -short skips it.
func TestSelfCheckCompleteEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("the unreduced searches run to completion")
	}
	for _, e := range Verified() {
		if rep := explore.Run(e.Scenario, e.Opts); !rep.Complete {
			t.Logf("%s: %d executions, complete=%v; no outcome set to compare", e.Scenario.Name, rep.Executions, rep.Complete)
			continue
		}
		opts := e.Opts
		opts.MaxExecutions = 250000 // mb/writeback+sync-discipline's plain search is 132,073
		switch e.Scenario.Name {
		case "mb/writeback+prefix-contract", "mb/replicated+crash+net", "mb/replicated+failstop":
			// The reduced searches complete in 1,030, 4,259 and 7,798.
			opts.MaxExecutions = 50000
		}
		with, without, err := explore.SelfCheck(e.Scenario, opts)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		t.Logf("%s: %d executions without the reductions, %d with (%d slept, %d blocked, %d pruned)",
			e.Scenario.Name, without.Executions, with.Executions, with.Stats.Slept, with.Stats.SleepBlocked, with.Stats.PrunedStates)
	}
}

// TestVerifiedAtCrashDepthTwo: recovery may itself crash and be re-run
// (the paper's §5 obligation), so every verified mail-store entry that
// takes a crash is searched again with a second one — a crash inside
// the first recovery — and must come out clean and complete. The rows
// stay out of Verified(): the benchmark times that list. The largest,
// mb/writeback+prefix-contract, completes in 2,000 executions; -short
// skips the test.
func TestVerifiedAtCrashDepthTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("nine complete searches at crash depth 2")
	}
	for _, r := range mailboatVerified {
		if r.opts.MaxCrashes == 0 {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			o := r.opts
			o.MaxCrashes = 2
			e := Entry{Scenario: mailboat.Scenario(r.name, r.variant, o)}
			rep := explore.Run(e.Scenario, explore.Options{MaxExecutions: 40000})
			t.Logf("%s", rep)
			mustVerdict(t, e, rep)
			if !rep.Complete {
				t.Fatalf("search stopped at its budget after %d executions", rep.Executions)
			}
		})
	}
}

// TestSelfCheckAtCrashDepthTwo is TestSelfCheckCompleteEntries at
// crash depth 2: recovery itself crashes, so crash states are evaluated
// in place inside a recovery era, on each model a mail store runs on, and
// a crash boundary's fingerprint holds the first crash in its history.
// Every crash-taking mail-store row whose plain search completes within
// 40,000 executions at MaxCrashes 2 is searched both ways, to
// completion, and the verdicts and outcome sets must agree. Two rows are
// left out because their plain searches do not complete there:
// mb/writeback+sync-discipline (past 60,000 executions; 132,073 at
// crash depth 1) and mb/writeback+prefix-contract (1.73M at depth 1).
// -short skips the test; CI's reductions step runs it.
func TestSelfCheckAtCrashDepthTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("seven plain searches at crash depth 2, the largest 35,582 executions")
	}
	skip := []string{"mb/writeback+sync-discipline", "mb/writeback+prefix-contract"}
	for _, r := range mailboatVerified {
		if r.opts.MaxCrashes == 0 || slices.Contains(skip, r.name) {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			o := r.opts
			o.MaxCrashes = 2
			with, without, err := explore.SelfCheck(mailboat.Scenario(r.name, r.variant, o), explore.Options{MaxExecutions: 40000})
			if err != nil {
				t.Fatal(err)
			}
			if !with.Complete || !without.Complete {
				t.Fatalf("reduced %s, plain %s: want both complete", with, without)
			}
			t.Logf("%d executions without the reductions, %d with (%s)", without.Executions, with.Executions, with.Stats)
		})
	}
}

// TestDedupSelfCheckMailboatMirror runs the reductions' self-check
// (explore.SelfCheck) on the mirrored-store scenario, whose fingerprint
// covers two filesystem models with their generation markers and the
// chooser-policy budget (each recovery era boots a fresh stack, so no
// fail-stop latch or mirror flag crosses a crash). CI runs this at the -short
// budget; the full budget matches cmd/perennial-check -selfcheck.
func TestDedupSelfCheckMailboatMirror(t *testing.T) {
	for _, e := range Verified() {
		if e.Pattern != "mailboat-mirror" {
			continue
		}
		opts := e.Opts
		if testing.Short() {
			opts.MaxExecutions = 1000
		}
		with, without, err := explore.SelfCheck(e.Scenario, opts)
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
			rep := explore.Run(mailboat.Scenario(r.name, r.variant, r.opts), explore.Options{MaxExecutions: r.max})
			if rep.Counterexample != nil && strings.HasPrefix(rep.Counterexample.Reason, "refinement failure") {
				convicted = r.name
			}
		}
		if verified == 0 || convicted == "" {
			t.Errorf("property %s: %d verified entries, no seeded bug convicted by a refinement failure", p.Name, verified)
		}
		t.Logf("property %s: %d verified entries, %s convicted by a refinement failure", p.Name, verified, convicted)
	}
}

// scenarioParts renders the table of DESIGN.md "Scenario parts" from the
// suite: for each of the four parts of a mail-store scenario, its zero
// value, and each other value some entry gives it with the entries that do
// (a property with the name of its spec).
func scenarioParts() [][]string {
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
	var rows [][]string
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
			rows = append(rows, []string{name, v, strings.Join(users[v], ", ")})
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

// TestScenarioPartsMatchDesignDoc pins DESIGN.md's four-part table to
// the suite's entries: its header, then the rows scenarioParts renders,
// cell for cell and in order, and no row besides.
func TestScenarioPartsMatchDesignDoc(t *testing.T) {
	header, rows := loc.DocTable(t, "DESIGN.md", "scenario-parts")
	want := scenarioParts()
	if !slices.Equal(header, []string{"part", "value", "suite entries (`mb/…`)"}) || !slices.EqualFunc(rows, want, slices.Equal[[]string]) {
		t.Errorf("DESIGN.md's table is\n%q\n%q\nthe suite's entries say\n%q", header, rows, want)
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

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// TestTraceGolden pins what perennial-check -v -min prints for one
// seeded bug per modeled backend — the file system, the network and the
// block disk: the minimized counterexample's traced replay, trace lines
// included. The search runs untraced and formats nothing, so this is
// where a formatting site made lazy would show a changed line.
// Regenerate with go test -run TraceGolden -update ./internal/suite.
func TestTraceGolden(t *testing.T) {
	bugs := Bugs()
	for _, name := range []string{
		"mb/sync-bug:ack-before-sync",
		"mb/repl-bug:resync-skips-epoch",
		"rd/bug:no-recovery",
	} {
		i := slices.IndexFunc(bugs, func(e Entry) bool { return e.Scenario.Name == name })
		if i < 0 {
			t.Fatalf("no seeded bug %s", name)
		}
		e := bugs[i]
		rep := explore.Run(e.Scenario, e.Opts)
		mustVerdict(t, e, rep)
		cx := explore.ReplayCx(e.Scenario, explore.Minimize(e.Scenario, rep.Counterexample.Choices))
		if cx == nil {
			t.Fatalf("%s: minimized counterexample does not replay", name)
		}
		path := filepath.Join("testdata", strings.NewReplacer("/", "_", ":", "_").Replace(name)+".golden")
		got := cx.Format()
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: counterexample moved\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
