package mailboat

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/gfs"
	"repro/internal/machine"
)

// These tests pin the delivery and recovery protocols (DESIGN.md
// "Delivery protocol", "Recovery protocol") to the code: mutations are compositions of the production stages and
// so survive what production survives, a stage token is minted only by
// its stage, and the document's two tables name what the code has.

// TestMutationsTrackProductionUnderFaults composes one fault axis with
// every row the checker must ACCEPT. A mutation that is a hand copy of
// Deliver drifts: at 184cb23 the benign spool-leak fork ignored
// Append's result (acking an empty message: convicted under fault.Append
// in 6 executions) and spun its name loop on a full disk (fault.NoSpace,
// 3 executions), while the real Deliver was clean under both. Built
// from the production stages, a row inherits their exits.
func TestMutationsTrackProductionUnderFaults(t *testing.T) {
	rows := []struct {
		name string
		v    Variant
	}{
		{"verified", VariantVerified},
		{"forget-spool-delete", VariantForgetSpoolDelete},
		{"pickup-leaky", VariantPickupLeaky},
	}
	for _, row := range rows {
		for _, op := range []fault.Class{fault.Append, fault.NoSpace, fault.Create, fault.Link} {
			name := fmt.Sprintf("%s+%v", row.name, op)
			t.Run(name, func(t *testing.T) {
				s := Scenario("mb-"+name, row.v, ScenarioOptions{
					Config:      Config{Users: 1, RandBound: 3},
					Delivers:    []OpDeliver{{User: 0, Msg: "mail"}},
					MaxCrashes:  1,
					PostPickups: true,
					Faults:      Faults{Budget: 1, Ops: fault.Classes(op)},
				})
				rep := explore.Run(s, explore.Options{MaxExecutions: 20000, Workers: 1})
				t.Logf("report: %s", rep.String())
				if !rep.OK() {
					t.Fatalf("accepted row convicted once a fault is composed with it:\n%s", rep.Counterexample.Format())
				}
				if !rep.Complete {
					t.Error("search did not complete")
				}
			})
		}
	}
}

// TestRecoveryMutationsTrackProduction boots each recovery on a mirror
// whose replica 1 died, missed a delivery, and was replaced: stale until
// a resilver. A recovery mutation that is a hand copy of Recover drifts:
// at cbf26ef all three were the paper's three-line sweep and none called
// Resilver or kept the boot report, though only no-resilver is meant to
// skip it. Built from the production stages, wipes and replay-spool
// leave the pair redundant and carry the BootScrub baseline; the forged
// repaired token alone leaves replica 1 stale.
func TestRecoveryMutationsTrackProduction(t *testing.T) {
	rows := []struct {
		name    string
		v       Variant
		repairs bool
	}{
		{"verified", VariantVerified, true},
		{"wipes", VariantRecoverWipes, true},
		{"replay-spool", VariantReplaySpool, true},
		{"no-resilver", VariantRecoverNoResilver, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := machine.New(machine.Options{})
			cfg := Config{Users: 1, RandBound: 4}
			dirs := Dirs(cfg)
			var backends [2]gfs.System
			for i := range backends {
				backends[i] = gfs.NewModel(m, gfs.BackendDirs(dirs, 2))
			}
			stack := gfs.NewStack(backends[:], dirs, gfs.StackSpec{Policy: fault.Never{}})
			var mb *Mailboat
			res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
				mb = Init(mt, nil, stack.Top, cfg)
				stack.Faulty(1).FailStopNow("drill")
				if !mb.Deliver(mt, nil, 0, []byte("mail")) {
					mt.Failf("degraded mirror refused a delivery")
				}
				stack.Faulty(1).Revive()
				stack.Mirror().ReplaceReplica(1)
				if row.v.Recover != nil {
					mb = row.v.Recover(mt, stack.Top, cfg)
				} else {
					mb = Recover(mt, nil, stack.Top, cfg, nil)
				}
			})
			if res.Outcome != machine.Done {
				t.Fatalf("res=%+v", res)
			}
			st := stack.Mirror().Status()
			rep, ok := mb.BootScrub()
			if row.repairs && (st.Degraded || !ok || !rep.Clean()) {
				t.Errorf("recovery left the mirror %+v, boot scrub ok=%v %v: a mutation whose bug is not the repair must repair", st, ok, rep)
			}
			if !row.repairs && (!st.Replicas[1].Stale || ok) {
				t.Errorf("mirror %+v, boot scrub ok=%v: the forged repaired token should leave replica 1 stale and no baseline", st, ok)
			}
		})
	}
}

// tokenMinters names, per stage token, the functions allowed to write
// a composite literal of it: the stage that earns it.
var tokenMinters = map[string][]string{
	"spooled":   {"spoolWrite"},
	"published": {"publishLink", "publishAs"},
	"durable":   {"barrier"},
	"repaired":  {"repair"},
	"swept":     {"sweep", "Init"}, // a fresh store has no orphan to sweep
}

// TestTokensForgedOnlyInBugs parses the package's non-test files: a
// composite literal of a stage token appears only inside the stage that
// mints it, or in bugs.go, where forging one is the seeded bug; and ack
// takes a durable, so "ack before the barrier" needs such a forgery.
func TestTokensForgedOnlyInBugs(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	minted := map[string]bool{}
	ackTakesDurable := false
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Name.Name == "ack" {
				params := fn.Type.Params.List
				last, _ := params[len(params)-1].Type.(*ast.Ident)
				ackTakesDurable = last != nil && last.Name == "durable"
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				id, ok := lit.Type.(*ast.Ident)
				if !ok || tokenMinters[id.Name] == nil {
					return true
				}
				switch {
				case name == "bugs.go":
				case slices.Contains(tokenMinters[id.Name], fn.Name.Name):
					minted[id.Name] = true
				default:
					t.Errorf("%s: %s writes a %s{…} literal; only %v (or a seeded bug in bugs.go) may",
						fset.Position(lit.Pos()), fn.Name.Name, id.Name, tokenMinters[id.Name])
				}
				return true
			})
		}
	}
	for tok := range tokenMinters {
		if !minted[tok] {
			t.Errorf("no stage mints a %s: the table above is stale", tok)
		}
	}
	if !ackTakesDurable {
		t.Error("ack's last parameter is not a durable")
	}
}

// designTable returns the DESIGN.md table between the named markers.
func designTable(t *testing.T, doc, name string) string {
	_, rest, ok := strings.Cut(doc, "<!-- "+name+":begin -->")
	table, _, ok2 := strings.Cut(rest, "<!-- "+name+":end -->")
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %s table", name)
	}
	return table
}

// stage is one row of a DESIGN.md stage table: the function that is the
// stage, as mailboat.go declares it, and the spans its row gives.
type stage struct {
	fn, decl string
	spans    []string
}

// checkStageTable holds a DESIGN.md stage table to mailboat.go: one row
// per stage and no others, each stage declared there and opening the
// spans its row names.
func checkStageTable(t *testing.T, doc []byte, table string, stages []stage) {
	t.Helper()
	src, err := os.ReadFile("mailboat.go")
	if err != nil {
		t.Fatal(err)
	}
	rows := designTable(t, string(doc), table)
	for _, st := range stages {
		row := regexp.MustCompile("(?m)^\\| `" + st.fn + "` .*$").FindString(rows)
		if row == "" {
			t.Errorf("%s has no row for %s", table, st.fn)
			continue
		}
		if !strings.Contains(string(src), st.decl+st.fn+"(") {
			t.Errorf("%s names %s, which mailboat.go does not define", table, st.fn)
		}
		for _, span := range st.spans {
			if !(strings.Contains(row, "`"+span+"`") && strings.Contains(string(src), `"`+span+`"`)) {
				t.Errorf("stage %s: span %q missing from its row or from mailboat.go", st.fn, span)
			}
		}
	}
	if n := strings.Count(rows, "\n| `"); n != len(stages) {
		t.Errorf("%s has %d rows, the code has %d stages", table, n, len(stages))
	}
}

// TestDeliveryProtocolMatchesDesignDoc holds DESIGN.md §4n's two tables
// to the code, the way gfs.TestStackRulesMatchDesignDoc holds §4m's:
// every stage the stage table names is a method in mailboat.go opening
// the span its row gives, and the mutation table has exactly one row
// per mutation declared in scenarios.go.
func TestDeliveryProtocolMatchesDesignDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	const method = "func (mb *Mailboat) "
	checkStageTable(t, doc, "delivery-stages", []stage{
		{"spoolWrite", method, []string{"spool.write"}},
		{"publishLink", method, []string{"publish.link"}},
		{"barrier", method, []string{"syncdir.barrier"}},
		{"ack", method, nil},
	})

	scen, err := os.ReadFile("scenarios.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\t(Variant\w+) += Variant\{[^}]`).FindAllStringSubmatch(string(scen), -1) {
		declared[m[1]] = true // the zero row, `Variant{}`, is no mutation
	}
	if len(declared) < 13 {
		t.Fatalf("found only %d mutation rows in scenarios.go", len(declared))
	}
	for _, m := range regexp.MustCompile("(?m)^\\| `(Variant\\w+)` ").FindAllStringSubmatch(designTable(t, string(doc), "delivery-mutations"), -1) {
		if !declared[m[1]] {
			t.Errorf("mutation table lists %s, which scenarios.go does not declare (or lists it twice)", m[1])
		}
		delete(declared, m[1])
	}
	for v := range declared {
		t.Errorf("mutation table has no row for %s", v)
	}
}

// TestRecoveryProtocolMatchesDesignDoc holds DESIGN.md §4p's table to
// the code: its rows are Recover's three stages, and the mutation
// column names exactly the Variant rows that override Recover.
func TestRecoveryProtocolMatchesDesignDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	checkStageTable(t, doc, "recovery-stages", []stage{
		{"repair", "func ", []string{"recover.resilver", "recover.scrub"}},
		{"sweep", "func ", []string{"recover.sweep"}},
		{"reinit", "func ", nil},
	})
	scen, err := os.ReadFile("scenarios.go")
	if err != nil {
		t.Fatal(err)
	}
	table := designTable(t, string(doc), "recovery-stages")
	overriding := regexp.MustCompile(`(?m)^\t(Variant\w+) += Variant\{[^}]*Recover:`).FindAllStringSubmatch(string(scen), -1)
	if len(overriding) != 3 {
		t.Errorf("found %d Variant rows overriding Recover in scenarios.go, want 3", len(overriding))
	}
	for _, m := range overriding {
		if !strings.Contains(table, "`"+m[1]+"`") {
			t.Errorf("recovery table names no stage that %s forges or replaces", m[1])
		}
	}
	if n := len(regexp.MustCompile("`Variant\\w+`").FindAllString(table, -1)); n != len(overriding) {
		t.Errorf("recovery table names %d mutations, scenarios.go has %d that override Recover", n, len(overriding))
	}
}
