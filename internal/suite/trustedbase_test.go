package suite

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The paper's trusted base (§9.2) includes the Goose translator: it is
// what says the code that runs is the code that was verified. Here the
// Go toolchain compiles, and the checker executes, one source, so the
// translator's job shrinks to one condition: checked code reaches the
// OS, the network, the clock and native synchronisation only through
// the modelled library — anything else the checker is blind to. The
// tables below are that condition, file by file; DESIGN.md "Trusted
// base" prints them.

// checkedPackages are the directories under internal/ whose non-test
// files the checker executes (or, for kvstore, its own tests do).
var checkedPackages = []string{"mailboat", "repl", "journal", "kvstore", "gfs", "netmodel", "examples/*"}

// pureStdlib computes and touches nothing outside the process.
var pureStdlib = []string{"bytes", "errors", "fmt", "sort", "slices", "strconv", "strings", "encoding/binary"}

// supportSurface is what checked code may import from this repository:
// the modelled machine and library, the ghost and spec layers, each
// other, and the nil-safe observability packages. The unverified
// packages (netsrv, smtp, pop3, mailboatd, admin, …) are not on it.
var supportSurface = []string{
	"core", "disk", "explore", "gfs", "journal", "machine", "mailboat",
	"netmodel", "obs", "spec", "trace", "tsl",
}

// trustedFiles may import anything: they are the boundary itself.
var trustedFiles = map[string]string{
	"gfs/osfs.go":         "gfs.System on real directories, under the daemon",
	"gfs/osfs_linux.go":   "its Linux primitives: one *at system call each",
	"gfs/osfs_other.go":   "its portable primitives, over os.Root",
	"gfs/statfs_linux.go": "statfs, behind the shed watermark",
	"repl/tcp.go":         "the checked frames over TCP; the frame server",
}

// exceptions are imports outside the surface that a checked file keeps,
// each with the reason the checker loses nothing by not seeing it.
var exceptions = map[string]map[string]string{
	"mailboat/mailboat.go": {
		"time": "a modelled thread returns before the sleep",
	},
	"mailboat/quota.go": {
		"sync": "the quota mutex guards no machine step",
	},
	"mailboat/metrics.go": {
		"time": "read only with Metrics set, nil under the checker",
	},
	"repl/node.go": {
		"sync": "mu guards the Status snapshot, held across no store or network step",
		"time": "pauses and the resync stamp are skipped on modelled threads",
	},
	"gfs/checksummed.go": {
		"sync": "mu guards the detection counter",
	},
	"gfs/faulty.go": {
		"sync": "mu guards counters and the fault log, held across no inner call",
	},
	"gfs/mirror.go": {
		"sync": "mu guards flag words, held across no replica operation",
		"time": "the degraded interval is stamped only with Metrics set",
	},
	"gfs/observed.go": {
		"time": "a layer stacked only with Metrics set",
	},
	"gfs/scrub.go": {
		"time": "a Duration parameter of a nil-safe metrics method",
	},
}

func allowedImport(path string) bool {
	if slices.Contains(pureStdlib, path) {
		return true
	}
	pkg, internal := strings.CutPrefix(path, "repro/internal/")
	return internal && slices.Contains(supportSurface, pkg)
}

// auditImports applies the tables to files (path under internal/ →
// import paths) and returns every departure, in either direction: an
// import no row allows, and a row nothing needs any more.
func auditImports(files map[string][]string) []string {
	var bad []string
	for file, imports := range files {
		trusted := trustedFiles[file] != ""
		needsTrust := false
		for _, path := range imports {
			switch {
			case allowedImport(path):
			case trusted:
				needsTrust = true
			case exceptions[file][path] == "":
				bad = append(bad, fmt.Sprintf("%s imports %q: not the support surface, not pure stdlib, and no exception row says why the checker may be blind to it", file, path))
			}
		}
		if trusted && !needsTrust {
			bad = append(bad, file+": stale row: a trusted file that imports nothing outside the surface")
		}
	}
	for file := range trustedFiles {
		if _, ok := files[file]; !ok {
			bad = append(bad, file+": stale row: trusted file does not exist")
		}
	}
	for file, row := range exceptions {
		for path := range row {
			if !slices.Contains(files[file], path) {
				bad = append(bad, fmt.Sprintf("%s: stale row: no longer imports %q", file, path))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// importsOf parses one file's import block.
func importsOf(t *testing.T, filename string, src any) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filename, src, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{}
	for _, im := range f.Imports {
		path, err := strconv.Unquote(im.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// checkedFiles parses the import block of every non-test file of the
// checked packages, build-tagged ones included.
func checkedFiles(t *testing.T) map[string][]string {
	t.Helper()
	files := map[string][]string{}
	for _, pkg := range checkedPackages {
		names, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("checked package %s: no files (%v)", pkg, err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			rel, err := filepath.Rel("..", name)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.ToSlash(rel)] = importsOf(t, name, nil)
		}
	}
	return files
}

// TestTrustedBase holds the repository to the tables above, and shows
// that the audit bites: the same function catches a synthetic checked
// file that opens the OS, and a row whose file has gone.
func TestTrustedBase(t *testing.T) {
	files := checkedFiles(t)
	for _, v := range auditImports(files) {
		t.Error(v)
	}
	pairs := 0
	for _, row := range exceptions {
		pairs += len(row)
	}
	t.Logf("%d checked files: %d trusted, %d with exceptions (%d file-import pairs)", len(files), len(trustedFiles), len(exceptions), pairs)

	if t.Failed() {
		return
	}
	// Negative controls: the real map, with a file added and two gone.
	files["mailboat/synthetic.go"] = importsOf(t, "synthetic.go", "package mailboat\nimport (\n\"os\"\n\"repro/internal/gfs\"\n\"repro/internal/netsrv\"\n)\n")
	delete(files, "gfs/scrub.go")
	delete(files, "gfs/statfs_linux.go")
	got := auditImports(files)
	want := []string{
		`gfs/scrub.go: stale row: no longer imports "time"`,
		"gfs/statfs_linux.go: stale row: trusted file does not exist",
		`mailboat/synthetic.go imports "os":`,
		`mailboat/synthetic.go imports "repro/internal/netsrv":`,
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

// TestTrustedBaseMatchesDesignDoc pins DESIGN.md's trusted-base table
// to the tables here: one row per trusted file and per exception, with
// the role or reason verbatim, and no row besides.
func TestTrustedBaseMatchesDesignDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- trusted-base:begin -->")
	table, _, ok2 := strings.Cut(rest, "<!-- trusted-base:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no trusted-base table")
	}
	var want []string
	for file, role := range trustedFiles {
		want = append(want, fmt.Sprintf("| `%s` | trusted | %s |", file, role))
	}
	for file, row := range exceptions {
		for path, why := range row {
			want = append(want, fmt.Sprintf("| `%s` | `%s` | %s |", file, path, why))
		}
	}
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "| `") {
			rows++
		}
	}
	if rows != len(want) {
		t.Errorf("DESIGN.md lists %d rows, the tables have %d", rows, len(want))
	}
	sort.Strings(want)
	for _, row := range want {
		if !strings.Contains(table, row) {
			t.Errorf("DESIGN.md is missing the row:\n%s", row)
		}
	}
}
