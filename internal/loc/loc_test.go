package loc

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, contents string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCountFileClassifiesLines(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "x.go", `// package comment
package x

/* block
comment */
func F() int {
	return 1 // trailing comments count as code
}
`)
	c, err := CountFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Code != 4 {
		t.Errorf("code=%d want 4", c.Code)
	}
	if c.Comments != 3 {
		t.Errorf("comments=%d want 3", c.Comments)
	}
	if c.Blank != 1 {
		t.Errorf("blank=%d want 1", c.Blank)
	}
	if c.Total() != 8 {
		t.Errorf("total=%d want 8", c.Total())
	}
}

func TestCountDirSkipsTestsWhenAsked(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.go", "package x\nfunc A() {}\n")
	writeFile(t, dir, "a_test.go", "package x\nfunc TestA() {}\nvar pad int\n")

	noTests, err := CountDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	withTests, err := CountDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if noTests.Code != 2 {
		t.Errorf("noTests.Code=%d", noTests.Code)
	}
	if withTests.Code != 5 {
		t.Errorf("withTests.Code=%d", withTests.Code)
	}
	if noTests.Files != 1 || withTests.Files != 2 {
		t.Errorf("files: %d, %d", noTests.Files, withTests.Files)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/loc -> repo root
}

func TestTable2AgainstThisRepo(t *testing.T) {
	rows, err := Table2(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Measured <= 0 {
			t.Errorf("%s measured %d", r.Name, r.Measured)
		}
		if r.Paper <= 0 {
			t.Errorf("%s has no paper number", r.Name)
		}
	}
}

func TestTable3AgainstThisRepo(t *testing.T) {
	rows, err := Table3(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Measured <= 0 {
			t.Errorf("%s measured %d", r.Name, r.Measured)
		}
	}
}

func TestTable4AgainstThisRepo(t *testing.T) {
	rows, err := Table4(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// The proof-analog row must be the test/scenario effort, strictly
	// positive and separate from the implementation.
	if rows[1].Measured <= 0 {
		t.Errorf("proof-analog row: %d", rows[1].Measured)
	}
	// The implementation row is the Figure-10 file and nothing else: it
	// declares the paper's six entry points, and the extensions (quotas,
	// named applies) live beside it, uncounted.
	core := filepath.Join(repoRoot(t), "internal/mailboat/mailboat.go")
	if c, err := CountFile(core); err != nil || c.Code != rows[0].Measured {
		t.Errorf("implementation row %d is not mailboat.go's %d lines (%v)", rows[0].Measured, c.Code, err)
	}
	src, err := os.ReadFile(core)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []string{"func Init(", "func Recover(", ") Deliver(", ") Pickup(", ") Delete(", ") Unlock("} {
		if !strings.Contains(string(src), entry) {
			t.Errorf("mailboat.go does not declare %q", entry)
		}
	}
	for _, ext := range []string{") quotaReserve(", ") DeliverAs("} {
		if strings.Contains(string(src), ext) {
			t.Errorf("mailboat.go declares the extension %q: Table 4 would count it against the paper's 159 lines", ext)
		}
	}
}

// TestTablesMatchExperimentsDoc holds EXPERIMENTS.md's Tables 2–4 to
// what `locstats -table N` prints today: in each "## Table N" section,
// the table with a "This repo" column must list exactly TableN's rows
// with TableN's counts. A row the paper has and this repository does
// not (the Goose translator) carries "—" in place of a count.
func TestTablesMatchExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for n, gen := range map[int]func(string) ([]Row, error){2: Table2, 3: Table3, 4: Table4} {
		_, section, ok := strings.Cut(string(doc), fmt.Sprintf("\n## Table %d ", n))
		if !ok {
			t.Errorf("EXPERIMENTS.md has no Table %d section", n)
			continue
		}
		section, _, _ = strings.Cut(section, "\n## ")
		// The documented count per component; col < 0 outside the table.
		documented, col := map[string]string{}, -1
		for _, line := range strings.Split(section, "\n") {
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			switch {
			case !strings.HasPrefix(line, "|"):
				col = -1
			case col < 0:
				col = slices.Index(cells, "This repo")
			case col < len(cells) && !strings.HasPrefix(cells[0], "---"):
				documented[cells[0]] = cells[col]
			}
		}
		rows, err := gen(repoRoot(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			got, ok := documented[r.Name]
			if want := strconv.Itoa(r.Measured); !ok || strings.ReplaceAll(got, ",", "") != want {
				t.Errorf("Table %d, %q: EXPERIMENTS.md says %q, locstats -table %d says %s", n, r.Name, got, n, want)
			}
			delete(documented, r.Name)
		}
		for name, cell := range documented {
			if !strings.HasPrefix(cell, "—") {
				t.Errorf("Table %d, %q: EXPERIMENTS.md says %q, locstats -table %d has no such row", n, name, cell, n)
			}
		}
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable("Table X", []Row{
		{Name: "thing", Measured: 42, Paper: 40, Note: "close"},
		{Name: "other", Measured: 7},
	})
	for _, want := range []string{"Table X", "thing", "42", "40", "close", "other", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestInventoryListsPackagesShallow(t *testing.T) {
	rows, err := Inventory(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The machine package exists with both code and tests.
	m, ok := byName["internal/machine"]
	if !ok {
		t.Fatalf("internal/machine missing from inventory: %v", rows)
	}
	if m.Measured <= 0 || !strings.Contains(m.Note, "test lines") {
		t.Fatalf("machine row: %+v", m)
	}
	// Shallow: internal/examples itself has no .go files, so it must not
	// appear; its children must.
	if _, ok := byName["internal/examples"]; ok {
		t.Fatal("non-package directory listed")
	}
	if _, ok := byName["internal/examples/wal"]; !ok {
		t.Fatal("internal/examples/wal missing")
	}
	// The last row sums the others.
	sum := 0
	for _, r := range rows[:len(rows)-1] {
		sum += r.Measured
	}
	if last := rows[len(rows)-1]; last.Name != "TOTAL" || last.Measured != sum || !strings.Contains(last.Note, "test lines") {
		t.Fatalf("last row %+v, want TOTAL with %d lines", last, sum)
	}
}
