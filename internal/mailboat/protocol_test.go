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
	"repro/internal/gfs"
)

// These tests pin the delivery protocol (DESIGN.md "Delivery protocol")
// to the code: mutations are compositions of the production stages and
// so survive what production survives, a stage token is minted only by
// its stage, and the document's two tables name what the code has.

// TestMutationsTrackProductionUnderFaults composes one fault axis with
// every row the checker must ACCEPT. A mutation that is a hand copy of
// Deliver drifts: at 184cb23 the benign spool-leak fork ignored
// Append's result (acking an empty message: convicted under FaultAppend
// in 6 executions) and spun its name loop on a full disk (FaultNoSpace,
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
		for _, op := range []gfs.FaultOp{gfs.FaultAppend, gfs.FaultNoSpace, gfs.FaultCreate, gfs.FaultLink} {
			name := fmt.Sprintf("%s+%v", row.name, op)
			t.Run(name, func(t *testing.T) {
				s := Scenario("mb-"+name, row.v, ScenarioOptions{
					Config:      Config{Users: 1, RandBound: 3},
					Delivers:    []OpDeliver{{User: 0, Msg: "mail"}},
					MaxCrashes:  1,
					PostPickups: true,
					Faults:      Faults{Budget: 1, Ops: gfs.Classes(op)},
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

// tokenMinters names, per stage token, the functions allowed to write
// a composite literal of it: the stage that earns it.
var tokenMinters = map[string][]string{
	"spooled":   {"spoolWrite"},
	"published": {"publishLink", "publishAs"},
	"durable":   {"barrier"},
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
	src, err := os.ReadFile("mailboat.go")
	if err != nil {
		t.Fatal(err)
	}
	stages := designTable(t, string(doc), "delivery-stages")
	for _, stage := range []struct{ fn, span string }{
		{"spoolWrite", "spool.write"},
		{"publishLink", "publish.link"},
		{"barrier", "syncdir.barrier"},
		{"ack", ""},
	} {
		row := regexp.MustCompile("(?m)^\\| `" + stage.fn + "` .*$").FindString(stages)
		if row == "" {
			t.Errorf("stage table has no row for %s", stage.fn)
			continue
		}
		if !strings.Contains(string(src), "func (mb *Mailboat) "+stage.fn+"(") {
			t.Errorf("stage table names %s, which mailboat.go does not define", stage.fn)
		}
		if stage.span != "" && !(strings.Contains(row, "`"+stage.span+"`") && strings.Contains(string(src), `"`+stage.span+`"`)) {
			t.Errorf("stage %s: span %q missing from its row or from mailboat.go", stage.fn, stage.span)
		}
	}
	if n := strings.Count(stages, "\n| `"); n != 4 {
		t.Errorf("stage table has %d rows, deliverAttempt has 4 stages", n)
	}

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
