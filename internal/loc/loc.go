// Package loc counts lines of code, reproducing the methodology behind
// the paper's effort tables (Tables 2, 3, and 4): per-component
// non-blank, non-comment line counts. The tables in the paper are
// regenerated from *this* repository's components by cmd/locstats and
// the corresponding benchmarks, with the paper's original numbers shown
// alongside for comparison.
package loc

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Count is one component's line counts.
type Count struct {
	Files    int
	Code     int // non-blank, non-comment lines
	Comments int
	Blank    int
}

// Total returns all physical lines.
func (c Count) Total() int { return c.Code + c.Comments + c.Blank }

// Add accumulates another count.
func (c *Count) Add(o Count) {
	c.Files += o.Files
	c.Code += o.Code
	c.Comments += o.Comments
	c.Blank += o.Blank
}

// CountFile counts one Go source file, classifying //-comment lines,
// /* */ block comment lines, blank lines, and code.
func CountFile(path string) (Count, error) {
	f, err := os.Open(path)
	if err != nil {
		return Count{}, err
	}
	defer f.Close()

	c := Count{Files: 1}
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case inBlock:
			c.Comments++
			if strings.Contains(line, "*/") {
				inBlock = false
			}
		case line == "":
			c.Blank++
		case strings.HasPrefix(line, "//"):
			c.Comments++
		case strings.HasPrefix(line, "/*"):
			c.Comments++
			if !strings.Contains(line[2:], "*/") {
				inBlock = true
			}
		default:
			c.Code++
		}
	}
	return c, sc.Err()
}

// CountDir counts all .go files under dir. includeTests selects whether
// _test.go files are included.
func CountDir(dir string, includeTests bool) (Count, error) {
	var total Count
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		if !includeTests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		c, err := CountFile(path)
		if err != nil {
			return err
		}
		total.Add(c)
		return nil
	})
	return total, err
}

// Component names a set of directories and/or individual files counted
// together.
type Component struct {
	Name         string
	Dirs         []string
	Files        []string
	IncludeTests bool
}

// Row is one measured component with the paper's corresponding number
// for side-by-side presentation.
type Row struct {
	Name     string
	Measured int
	Paper    int // 0 = the paper reports no number for this row
	Note     string
}

// Measure counts each component relative to root.
func Measure(root string, comps []Component) ([]Row, error) {
	var rows []Row
	for _, comp := range comps {
		var total Count
		for _, d := range comp.Dirs {
			c, err := CountDir(filepath.Join(root, d), comp.IncludeTests)
			if err != nil {
				return nil, fmt.Errorf("loc: %s: %w", comp.Name, err)
			}
			total.Add(c)
		}
		for _, f := range comp.Files {
			c, err := CountFile(filepath.Join(root, f))
			if err != nil {
				return nil, fmt.Errorf("loc: %s: %w", comp.Name, err)
			}
			total.Add(c)
		}
		rows = append(rows, Row{Name: comp.Name, Measured: total.Code})
	}
	return rows, nil
}

// FormatTable renders rows as an aligned two- or three-column table.
func FormatTable(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-38s %10s %12s\n", "Component", "This repo", "Paper")
	for _, r := range rows {
		paper := "-"
		if r.Paper > 0 {
			paper = fmt.Sprintf("%d", r.Paper)
		}
		fmt.Fprintf(&b, "%-38s %10d %12s", r.Name, r.Measured, paper)
		if r.Note != "" {
			fmt.Fprintf(&b, "  (%s)", r.Note)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Inventory counts every Go package directory under root, split into
// non-test and test lines — the repository's own system inventory —
// and closes with a TOTAL row: the one number a PR that claims to
// shrink the repository is held to.
func Inventory(root string) ([]Row, error) {
	var rows []Row
	var total, totalTests int
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if seen[dir] {
			return nil
		}
		seen[dir] = true
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			rel = dir
		}
		code, all, err := countShallow(dir)
		if err != nil {
			return err
		}
		rows = append(rows, Row{
			Name:     rel,
			Measured: code.Code,
			Note:     fmt.Sprintf("+%d test lines", all.Code-code.Code),
		})
		total, totalTests = total+code.Code, totalTests+all.Code-code.Code
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return append(rows, Row{Name: "TOTAL", Measured: total, Note: fmt.Sprintf("+%d test lines", totalTests)}), nil
}

// countShallow counts only the .go files directly in dir, returning the
// non-test and with-test counts.
func countShallow(dir string) (code, all Count, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Count{}, Count{}, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		c, err := CountFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return Count{}, Count{}, err
		}
		all.Add(c)
		if !strings.HasSuffix(e.Name(), "_test.go") {
			code.Add(c)
		}
	}
	return code, all, nil
}

// Table2 maps this repository's components onto the paper's Table 2
// (lines of code for Perennial and Goose). The paper's Goose translator
// (1,790 lines) has no row: its substitution here is none — one source,
// compiled by the Go toolchain and executed by the checker (DESIGN.md
// "Trusted base").
func Table2(root string) ([]Row, error) {
	rows, err := Measure(root, []Component{
		{Name: "Transition system language", Dirs: []string{"internal/tsl", "internal/spec"}},
		{Name: "Core framework", Dirs: []string{"internal/core", "internal/history", "internal/explore", "internal/machine"}},
		{Name: "Goose library (Go)", Dirs: []string{"internal/gfs"}},
		{Name: "Go semantics", Dirs: []string{"internal/machine", "internal/disk"}},
	})
	if err != nil {
		return nil, err
	}
	paper := []int{1710, 7220, 220, 2020}
	notes := []string{
		"spec DSL + checker interface",
		"capability runtime + refinement checker + modeled machine",
		"modeled + OS file system",
		"machine & disk models (shared with core framework)",
	}
	for i := range rows {
		rows[i].Paper = paper[i]
		rows[i].Note = notes[i]
	}
	return rows, nil
}

// Table3 maps the crash-safety pattern examples onto the paper's
// Table 3 (lines of code per verified example).
func Table3(root string) ([]Row, error) {
	rows, err := Measure(root, []Component{
		{Name: "Two-disk semantics", Dirs: []string{"internal/disk"}},
		{Name: "Replicated disk", Dirs: []string{"internal/examples/replicateddisk"}},
		{Name: "Single-disk semantics", Dirs: []string{"internal/disk"}},
		{Name: "Shadow copy", Dirs: []string{"internal/examples/shadowcopy"}},
		{Name: "Write-ahead logging", Dirs: []string{"internal/examples/wal"}},
		{Name: "Group commit", Dirs: []string{"internal/examples/groupcommit"}},
	})
	if err != nil {
		return nil, err
	}
	paper := []int{1350, 1180, 1310, 390, 930, 1410}
	for i := range rows {
		rows[i].Paper = paper[i]
	}
	rows[0].Note = "one disk model serves both semantics here"
	rows[2].Note = "same module as the two-disk semantics"
	return rows, nil
}

// Table4 maps the mail-server effort comparison onto the paper's
// Table 4 (Mailboat vs CMAIL lines of code). The implementation row is
// the Figure-10 file alone — the paper's six entry points, as 159 lines
// of Go are — not the extensions beside it.
func Table4(root string) ([]Row, error) {
	rows, err := Measure(root, []Component{
		{Name: "Implementation (Mailboat)", Files: []string{"internal/mailboat/mailboat.go"}},
		{Name: "Proof-analog (spec+scenarios+tests)", Dirs: []string{"internal/mailboat"}, IncludeTests: true},
		{Name: "Framework", Dirs: []string{
			"internal/tsl", "internal/spec", "internal/core",
			"internal/history", "internal/explore", "internal/machine",
		}},
	})
	if err != nil {
		return nil, err
	}
	// Subtract the implementation, and what is neither implementation
	// nor proof — the seeded-bug variants and the extensions beyond
	// Figure 10 (named applies, quotas, metrics) — from the everything
	// count so the second row is the specification/checking effort alone.
	rows[1].Measured -= rows[0].Measured
	for _, name := range []string{"bugs.go", "named.go", "quota.go", "metrics.go"} {
		c, err := CountFile(filepath.Join(root, "internal/mailboat", name))
		if err != nil {
			return nil, err
		}
		rows[1].Measured -= c.Code
	}
	rows[0].Paper = 159
	rows[0].Note = "paper: 159 Go / CMAIL 215 Coq"
	rows[1].Paper = 3360
	rows[1].Note = "paper: 3360 proof / CMAIL 4050"
	rows[2].Paper = 8900
	rows[2].Note = "paper: Perennial 8900 / CSPEC 9600"
	return rows, nil
}

// DocTable returns the cells, trimmed, of the table a document marks
// for the tests that pin it between "<!-- name:begin -->" and
// "<!-- name:end -->": its header row, and every body row after the
// separator. doc is relative to the repository root, the directory
// above the working one that holds go.mod, unless it is absolute. A
// missing marker, a second row that is no separator, or a table with no
// body row fails the test, naming the doc and the table.
func DocTable(tb testing.TB, doc, name string) (header []string, rows [][]string) {
	tb.Helper()
	for dir, _ := os.Getwd(); !filepath.IsAbs(doc) && dir != filepath.Dir(dir); dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			doc = filepath.Join(dir, doc)
		}
	}
	text, err := os.ReadFile(doc)
	_, table, _ := strings.Cut(string(text), "<!-- "+name+":begin -->")
	table, _, ended := strings.Cut(table, "<!-- "+name+":end -->")
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if err != nil || !ended || len(lines) < 3 || strings.Trim(lines[1], "|-: ") != "" {
		tb.Fatalf("%s has no %s table with a separator and a body row between its markers (%v)", filepath.Base(doc), name, err)
	}
	rows = make([][]string, len(lines))
	for i, line := range lines {
		for _, cell := range strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|") {
			rows[i] = append(rows[i], strings.TrimSpace(cell))
		}
	}
	return rows[0], rows[2:]
}
