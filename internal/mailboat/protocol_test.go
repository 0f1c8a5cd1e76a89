package mailboat

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/gfs"
	"repro/internal/loc"
	"repro/internal/machine"
)

// These tests pin the delivery and recovery protocols (DESIGN.md "Delivery
// protocol", "Recovery protocol") to the code: mutations are compositions
// of the production stages and so survive what production survives, a
// stage token is minted only by its stage, and the document's two tables
// name what the code has.

// TestMutationsTrackProductionUnderFaults composes one fault axis with
// every row the checker must ACCEPT. A mutation that is a hand copy of
// Deliver drifts: at 184cb23 the benign spool-leak fork ignored
// Append's result (acking an empty message: convicted under fault.Append
// in 6 executions) and spun its name loop on a full disk (fault.NoSpace,
// 3 executions), while the real Deliver was clean under both. Built
// from the production stages, a row inherits their exits. The leaky
// pickup's one difference is its leak, which the between-era resource
// audit convicts at once, so its row is held to the history check
// alone.
func TestMutationsTrackProductionUnderFaults(t *testing.T) {
	rows := []struct {
		name  string
		v     Variant
		leaks bool
	}{
		{"verified", VariantVerified, false},
		{"forget-spool-delete", VariantForgetSpoolDelete, false},
		{"pickup-leaky", VariantPickupLeaky, true},
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
				if row.leaks {
					s.Invariant = nil
				}
				rep := explore.Run(s, explore.Options{MaxExecutions: 20000})
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
// whose replica 1 died, missed a delivery, and came back at the reboot:
// stale until a resilver. A recovery mutation that is a hand copy of
// Recover drifts: at cbf26ef all three were the paper's three-line sweep
// and none called Resilver or kept the boot report, though only
// no-resilver is meant to skip it. Built from the production stages,
// wipes and replay-spool leave the pair redundant and carry the
// BootScrub baseline; the forged repaired token alone leaves replica 1
// stale.
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
			var models [2]*gfs.Model
			var backends [2]gfs.System
			for i := range backends {
				models[i] = gfs.NewModel(m, gfs.BackendDirs(dirs, 2))
				backends[i] = models[i]
			}
			spec := gfs.StackSpec{Policy: fault.Never{}}
			stack := gfs.NewStack(backends[:], dirs, spec)
			var mb *Mailboat
			res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
				mb = Init(mt, nil, stack.Top, cfg)
				stack.Faulty(1).FailStopNow("drill")
				if !mb.Deliver(mt, nil, 0, []byte("mail")) {
					mt.Failf("degraded mirror refused a delivery")
				}
				stack = gfs.NewStack(backends[:], dirs, spec)
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
			if stale := ReplicasIdentical(models[0], models[1], gfs.BackendDirs(dirs, 2)) != nil; !row.repairs && (!stale || ok) {
				t.Errorf("replica 1 stale=%v, boot scrub ok=%v: the forged repaired token should leave replica 1 stale and no baseline", stale, ok)
			}
		})
	}
}

// tokenRules is one package's stage-token discipline. A token is an
// unexported value type that only the stage which earns it may create;
// the next stage takes it as its last parameter, so running the stages
// out of order needs a forgery, and the package's bugs.go — where
// forging one is the seeded bug — is the only file allowed one.
type tokenRules struct {
	name, dir string
	// minters names, per token, the functions allowed to create one.
	minters map[string][]string
	// consumers maps a stage to the token its last parameter must be.
	consumers map[string]string
}

// tokenPackages are the packages whose ordering obligations are tokens:
// delivery and recovery here, and below and above this package the four
// obligations the obligations table of DESIGN.md "Seeded bugs" lists.
var tokenPackages = []tokenRules{
	{"mailboat", ".", map[string][]string{
		"spooled":   {"spoolWrite"},
		"published": {"publishLink", "publishAs"},
		"durable":   {"barrier"},
		"repaired":  {"repair"},
		"swept":     {"sweep", "Init"}, // a fresh store has no orphan to sweep
	}, map[string]string{"barrier": "published", "ack": "durable", "sweep": "repaired", "reinit": "swept"}},
	{"gfs", "../gfs", map[string][]string{
		"verified": {"verify"},
		"judged":   {"judge", "healFile"},
		"bumped":   {"bumpGeneration"},
	}, map[string]string{"serve": "verified", "copyFile": "judged", "degrade": "bumped"}},
	{"repl", "../repl", map[string][]string{
		"replicated": {"replicate"},
		"fenced":     {"fence"},
	}, map[string]string{"localDeliverMust": "replicated", "localDeleteMust": "replicated", "stream": "fenced", "lead": "fenced"}},
}

// sources reads the package's non-test Go files: file name → source.
func (r tokenRules) sources(t *testing.T) map[string]string {
	names, err := filepath.Glob(filepath.Join(r.dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(name)] = string(b)
	}
	return srcs
}

// breaches parses srcs as one package and returns every breach of r: a
// token created outside its minters and bugs.go — by a composite
// literal, a zero-value declaration, new(T) or a conversion — a minter
// row no function backs, and a consumer whose last parameter is not its
// token.
func (r tokenRules) breaches(srcs map[string]string) []string {
	fset := token.NewFileSet()
	var out []string
	minted, consumes := map[string]bool{}, map[string]bool{}
	for _, name := range slices.Sorted(maps.Keys(srcs)) {
		file, err := parser.ParseFile(fset, name, srcs[name], 0)
		if err != nil {
			out = append(out, err.Error())
			continue
		}
		for _, decl := range file.Decls {
			fn := ""
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = d.Name.Name
				if params := d.Type.Params.List; len(params) > 0 && r.consumers[fn] != "" {
					consumes[fn] = r.token(params[len(params)-1].Type) == r.consumers[fn]
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				tok := r.created(n)
				switch {
				case tok == "" || name == "bugs.go":
				case slices.Contains(r.minters[tok], fn):
					minted[tok] = true
				default:
					out = append(out, fmt.Sprintf("%s: %q creates a %s; only %v (or a seeded bug in bugs.go) may",
						fset.Position(n.Pos()), fn, tok, r.minters[tok]))
				}
				return true
			})
		}
	}
	for tok := range r.minters {
		if !minted[tok] {
			out = append(out, fmt.Sprintf("no stage mints a %s: the minters table is stale", tok))
		}
	}
	for stage, tok := range r.consumers {
		if !consumes[stage] {
			out = append(out, fmt.Sprintf("%s's last parameter is not a %s", stage, tok))
		}
	}
	return out
}

// created names the token n conjures, or "": T{…} (an array of T
// included), a declaration with no value — a var, or a named result —
// new(T), or the conversion T(x).
func (r tokenRules) created(n ast.Node) string {
	switch n := n.(type) {
	case *ast.CompositeLit:
		return r.token(n.Type)
	case *ast.ValueSpec:
		if len(n.Values) == 0 {
			return r.token(n.Type)
		}
	case *ast.FuncType:
		if n.Results == nil {
			return ""
		}
		for _, res := range n.Results.List {
			if len(res.Names) > 0 && r.token(res.Type) != "" {
				return r.token(res.Type)
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
			return r.token(n.Args[0])
		}
		return r.token(n.Fun)
	}
	return ""
}

// token names the token type e denotes, or "".
func (r tokenRules) token(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if r.minters[e.Name] != nil {
			return e.Name
		}
	case *ast.ArrayType:
		if e.Len != nil {
			return r.token(e.Elt)
		}
	}
	return ""
}

// TestTokensForgedOnlyInBugs holds every package of tokenPackages to its
// rules: each token is created only inside the stage that mints it, or
// in the package's bugs.go, where forging one is the seeded bug; and
// each consuming stage takes its token, so running it early needs such a
// forgery.
func TestTokensForgedOnlyInBugs(t *testing.T) {
	for _, r := range tokenPackages {
		t.Run(r.name, func(t *testing.T) {
			for _, b := range r.breaches(r.sources(t)) {
				t.Error(b)
			}
		})
	}
}

// TestTokenCheckerRefusesForgeries is the checker's negative control:
// each way of conjuring a durable, written into a synthetic forge.go
// beside this package's real sources, is a breach; and so is a stale
// minter row, and a consumer that takes no token.
func TestTokenCheckerRefusesForgeries(t *testing.T) {
	r := tokenPackages[0]
	srcs := r.sources(t)
	for _, forge := range []string{
		"d := durable{}",
		"var d durable",
		"d := new(durable)",
		"d := *new(durable)",
		"d := durable(struct{ pub published }{})",
		"var d [1]durable",
		"d := [1]durable{}",
	} {
		srcs["forge.go"] = "package mailboat\n\nfunc forge() {\n\t" + forge + "\n\t_ = d\n}\n"
		if got := r.breaches(srcs); len(got) != 1 || !strings.Contains(got[0], "forge.go") {
			t.Errorf("%s: breaches %q, want one in forge.go", forge, got)
		}
	}
	srcs["forge.go"] = "package mailboat\n\nfunc forge() (d durable) { return }\n"
	if got := r.breaches(srcs); len(got) != 1 {
		t.Errorf("a named durable result: breaches %q, want one", got)
	}
	delete(srcs, "forge.go")
	stale := tokenRules{dir: r.dir, minters: maps.Clone(r.minters), consumers: map[string]string{"spoolWrite": "durable"}}
	stale.minters["ghost"] = []string{"haunt"}
	if got := r.breaches(srcs); len(got) != 0 {
		t.Fatalf("the real sources breach the rules: %q", got)
	}
	if got := stale.breaches(srcs); len(got) != 2 {
		t.Errorf("a stale minter row and a tokenless consumer: breaches %q, want two", got)
	}
}

// TestObligationsMatchDesignDoc holds DESIGN.md's obligations table to
// tokenPackages: one row per gfs and repl token, naming the stage that
// mints it and the stages that take it as the rules do, and a forging
// row that this package's or repl's scenarios.go declares.
func TestObligationsMatchDesignDoc(t *testing.T) {
	var scen []byte
	for _, f := range []string{"scenarios.go", filepath.Join("..", "repl", "scenarios.go")} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		scen = append(scen, b...)
	}
	_, rows := loc.DocTable(t, "DESIGN.md", "obligations")
	names := func(cell string) []string {
		var out []string
		for _, m := range regexp.MustCompile("`(\\w+)`").FindAllStringSubmatch(cell, -1) {
			out = append(out, m[1])
		}
		slices.Sort(out)
		return out
	}
	want := 0
	for _, r := range tokenPackages[1:] {
		for tok, minters := range r.minters {
			want++
			i := slices.IndexFunc(rows, func(c []string) bool { // obligation, token, minter, consumers, forging row
				return len(c) == 5 && !strings.ContainsAny(c[0], "`") && c[1] == "`"+tok+"`"
			})
			if i < 0 {
				t.Errorf("obligations table has no row for %s's %s", r.name, tok)
				continue
			}
			var consumers []string
			for stage, ctok := range r.consumers {
				if ctok == tok {
					consumers = append(consumers, stage)
				}
			}
			slices.Sort(consumers)
			if got := names(rows[i][2]); !slices.Equal(got, slices.Sorted(slices.Values(minters))) {
				t.Errorf("%s: minter %v, the rules say %v", tok, got, minters)
			}
			if got := names(rows[i][3]); !slices.Equal(got, consumers) {
				t.Errorf("%s: consumers %v, the rules say %v", tok, got, consumers)
			}
			v := names(rows[i][4])
			if len(v) != 1 || !regexp.MustCompile(`(?m)^\t`+v[0]+` += Variant\{`).Match(scen) {
				t.Errorf("%s: forging row %v is not a Variant row of mailboat or repl", tok, v)
			}
		}
	}
	if len(rows) != want {
		t.Errorf("obligations table has %d rows, gfs and repl have %d tokens", len(rows), want)
	}
}

// stage is one row of a DESIGN.md stage table: the function that is the
// stage, as mailboat.go declares it, and the spans its row gives.
type stage struct {
	fn, decl string
	spans    []string
}

// checkStageTable holds a DESIGN.md stage table to mailboat.go: one row
// per stage and no others, each stage declared there and opening the
// spans its row names in the span column, the fourth. It returns the
// table's rows.
func checkStageTable(t *testing.T, table string, stages []stage) [][]string {
	t.Helper()
	src, err := os.ReadFile("mailboat.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rows := loc.DocTable(t, "DESIGN.md", table)
	for _, st := range stages {
		i := slices.IndexFunc(rows, func(c []string) bool { return len(c) > 3 && c[0] == "`"+st.fn+"`" })
		if i < 0 {
			t.Errorf("%s has no row for %s", table, st.fn)
			continue
		}
		if !strings.Contains(string(src), st.decl+st.fn+"(") {
			t.Errorf("%s names %s, which mailboat.go does not define", table, st.fn)
		}
		for _, span := range st.spans {
			if !(strings.Contains(rows[i][3], "`"+span+"`") && strings.Contains(string(src), `"`+span+`"`)) {
				t.Errorf("stage %s: span %q missing from its row's span column or from mailboat.go", st.fn, span)
			}
		}
	}
	if len(rows) != len(stages) {
		t.Errorf("%s has %d rows, the code has %d stages", table, len(rows), len(stages))
	}
	return rows
}

// TestDeliveryProtocolMatchesDesignDoc holds the stage table of DESIGN.md
// "Delivery protocol" and the mutation table of DESIGN.md "Seeded bugs"
// to the code, the way gfs.TestStackRulesMatchDesignDoc holds the
// legality table:
// every stage the stage table names is a method in mailboat.go opening
// the span its row gives, and the mutation table has exactly one row
// per mutation declared in scenarios.go.
func TestDeliveryProtocolMatchesDesignDoc(t *testing.T) {
	const method = "func (mb *Mailboat) "
	checkStageTable(t, "delivery-stages", []stage{
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
	_, mutations := loc.DocTable(t, "DESIGN.md", "delivery-mutations")
	for _, r := range mutations {
		v := strings.Trim(r[0], "`")
		if !declared[v] {
			t.Errorf("mutation table lists %s, which scenarios.go does not declare (or lists it twice)", v)
		}
		delete(declared, v)
	}
	for v := range declared {
		t.Errorf("mutation table has no row for %s", v)
	}
}

// TestRecoveryProtocolMatchesDesignDoc holds the table of DESIGN.md
// "Recovery protocol" to the code: its rows are Recover's three stages,
// and its cells name, once each, exactly the four Variant rows that
// override Recover.
func TestRecoveryProtocolMatchesDesignDoc(t *testing.T) {
	rows := checkStageTable(t, "recovery-stages", []stage{
		{"repair", "func ", []string{"recover.resilver", "recover.scrub"}},
		{"sweep", "func ", []string{"recover.sweep"}},
		{"reinit", "func ", nil},
	})
	scen, err := os.ReadFile("scenarios.go")
	if err != nil {
		t.Fatal(err)
	}
	var named, overriding []string
	for _, cell := range slices.Concat(rows...) {
		named = append(named, regexp.MustCompile("`Variant\\w+`").FindAllString(cell, -1)...)
	}
	for _, m := range regexp.MustCompile(`(?m)^\t(Variant\w+) += Variant\{[^}]*Recover:`).FindAllStringSubmatch(string(scen), -1) {
		overriding = append(overriding, "`"+m[1]+"`")
	}
	slices.Sort(named)
	slices.Sort(overriding)
	if len(overriding) != 4 || !slices.Equal(named, overriding) {
		t.Errorf("recovery table names the mutations %v; the Variant rows of scenarios.go overriding Recover, four of them, are %v", named, overriding)
	}
}
