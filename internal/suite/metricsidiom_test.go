package suite

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// "Metrics off" has one rule, internal/obs's: a nil *Counter, *Gauge or
// *Histogram records nothing. A layer's metric set is a plain struct of
// those handles, held by value, whose zero value is "off", and its call
// sites write the handles. A method on such a struct that opens by
// checking its receiver against nil re-decides "off" a second time, in
// the layer — the wrapper this audit keeps out.

// guardExceptions are the metric sets whose methods may open with a
// nil-receiver check ("dir.Type"), each with the reason.
var guardExceptions = map[string]string{
	"internal/trace.StageMetrics": "a lazily registering cache behind a mutex, not a set of handles",
}

// obsHandles are the nil-safe handle types of internal/obs.
var obsHandles = []string{"Counter", "Gauge", "Histogram"}

// metricSetGuards returns "dir.Type.Method" for every method whose body
// opens with an if comparing its receiver with nil, on a struct type of
// the same directory with an obs handle among its field types. sources
// maps a file's slash path (its directory is its package) to its text.
func metricSetGuards(t *testing.T, sources map[string][]byte) []string {
	t.Helper()
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	sets := map[string]bool{} // "dir.Type"
	for name, src := range sources {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed[name] = f
		obsName := ""
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "repro/internal/obs" {
				obsName = "obs"
				if im.Name != nil {
					obsName = im.Name.Name
				}
			}
		}
		if obsName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok && mentionsHandle(st, obsName) {
				sets[path.Dir(name)+"."+ts.Name.Name] = true
			}
			return false
		})
	}
	var found []string
	for name, f := range parsed {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 || fd.Body == nil || len(fd.Body.List) == 0 {
				continue
			}
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			id, ok := typ.(*ast.Ident)
			if !ok || !sets[path.Dir(name)+"."+id.Name] {
				continue
			}
			if opens, ok := fd.Body.List[0].(*ast.IfStmt); ok && comparesWithNil(opens.Cond, fd.Recv.List[0].Names[0].Name) {
				found = append(found, path.Dir(name)+"."+id.Name+"."+fd.Name.Name)
			}
		}
	}
	slices.Sort(found)
	return found
}

// mentionsHandle reports whether a field type of st names an obs handle
// (a pointer, array, map or slice of one included).
func mentionsHandle(st *ast.StructType, obsName string) bool {
	found := false
	for _, field := range st.Fields.List {
		ast.Inspect(field.Type, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == obsName && slices.Contains(obsHandles, sel.Sel.Name) {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// comparesWithNil reports whether cond compares the identifier recv with
// nil, alone or as one operand of && or ||.
func comparesWithNil(cond ast.Expr, recv string) bool {
	is := func(e ast.Expr, name string) bool { id, ok := e.(*ast.Ident); return ok && id.Name == name }
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) &&
			(is(b.X, recv) && is(b.Y, "nil") || is(b.X, "nil") && is(b.Y, recv)) {
			found = true
		}
		return !found
	})
	return found
}

// repoSources reads every non-test Go file of the repository outside
// internal/obs, keyed by its slash path from the root.
func repoSources(t *testing.T) map[string][]byte {
	t.Helper()
	root := filepath.Join("..", "..")
	sources := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "internal/obs") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		sources[rel] = src
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sources
}

// TestMetricSetsHaveNoNilGuards holds every metric set outside
// internal/obs to the zero-value idiom, fails on an exception nothing
// needs, and shows that the audit bites on a synthetic wrapper.
func TestMetricSetsHaveNoNilGuards(t *testing.T) {
	sources := repoSources(t)
	audit := func(sources map[string][]byte) []string {
		var bad []string
		used := map[string]bool{}
		for _, m := range metricSetGuards(t, sources) {
			set := m[:strings.LastIndexByte(m, '.')]
			if guardExceptions[set] != "" {
				used[set] = true
				continue
			}
			bad = append(bad, m+": a metric set's method opens with a nil-receiver check; write its obs handles at the call site instead")
		}
		for _, set := range slices.Sorted(maps.Keys(guardExceptions)) {
			if !used[set] {
				bad = append(bad, set+": stale exception: no method of it opens with a nil-receiver check")
			}
		}
		return bad
	}
	for _, v := range audit(sources) {
		t.Error(v)
	}
	t.Logf("%d files audited", len(sources))
	if t.Failed() {
		return
	}

	// Negative control: the real sources with one synthetic wrapper, a
	// handle lookup beside it that is no wrapper, and the exception gone.
	sources["internal/mailboat/synthetic.go"] = []byte(`package mailboat
import o "repro/internal/obs"
type syntheticMetrics struct{ hits [2]*o.Counter }
func (m *syntheticMetrics) hit(i int) {
	if i < 0 || m == nil {
		return
	}
	m.hits[i].Inc()
}
func (m *syntheticMetrics) counter(i int) *o.Counter { return m.hits[i] }
`)
	delete(sources, "internal/trace/metrics.go")
	got := audit(sources)
	want := []string{
		"internal/mailboat.syntheticMetrics.hit: a metric set's method",
		"internal/trace.StageMetrics: stale exception",
	}
	if len(got) != len(want) {
		t.Fatalf("negative control: audit reported\n%s\nwant %d findings", strings.Join(got, "\n"), len(want))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("negative control: finding %d is %q, want prefix %q", i, got[i], want[i])
		}
	}
}
