package loc

import (
	"cmp"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fatalRecorder is a testing.TB whose Fatalf panics with the message.
type fatalRecorder struct{ testing.TB }

func (fatalRecorder) Fatalf(format string, args ...any) { panic(fmt.Sprintf(format, args...)) }

// TestDocTableRefusesBrokenTables is DocTable's negative control: a
// table whose end marker is missing, one whose second row is no
// separator, and one with a header and no body row fail the test that
// reads them, naming the doc and the table.
func TestDocTableRefusesBrokenTables(t *testing.T) {
	for doc, text := range map[string]string{
		"unended.md": "<!-- t:begin -->\n| a |\n|---|\n| 1 |\n",
		"nosep.md":   "<!-- t:begin -->\n| a |\n| 1 |\n| 2 |\n<!-- t:end -->\n",
		"empty.md":   "<!-- t:begin -->\n| a |\n|---|\n<!-- t:end -->\n",
	} {
		var msg any
		func() {
			defer func() { msg = recover() }()
			DocTable(fatalRecorder{t}, writeFile(t, t.TempDir(), doc, text), "t")
		}()
		if s, _ := msg.(string); !strings.HasPrefix(s, doc+" has no t table") {
			t.Errorf("%s: DocTable failed with %v", doc, msg)
		}
	}
}

// TestInventoryMatchesDesignDoc holds DESIGN.md's system inventory to
// the tree: every package directory under internal/, cmd/ and
// examples/ is named in exactly one row, and a row names only
// directories that exist.
func TestInventoryMatchesDesignDoc(t *testing.T) {
	named := map[string]int{} // rows naming the directory, less one if it is a package
	_, rows := DocTable(t, "DESIGN.md", "inventory")
	for _, r := range rows {
		for _, m := range regexp.MustCompile("`((?:internal|cmd|examples)/[^`]+)`").FindAllStringSubmatch(r[0], -1) {
			named[m[1]]++
		}
	}
	for _, top := range []string{"internal", "cmd", "examples"} {
		filepath.WalkDir(filepath.Join(repo, top), func(path string, d fs.DirEntry, err error) error {
			if gos, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gos) > 0 {
				dir, _ := filepath.Rel(repo, path)
				named[dir]--
			}
			return err
		})
	}
	for dir, n := range named {
		if n != 0 {
			t.Errorf("DESIGN.md's inventory is off by %+d rows for %s: it names each package directory once, and nothing else", n, dir)
		}
	}
}

// badDesignRefs lists each citation of DESIGN.md under dir — by a title
// in quotes, or by a section number — that names no heading of
// DESIGN.md, in a .go, .md or .yml file outside bench/. CHANGES.md and
// ISSUE.md are not read: they record work past or pending, not
// citations to keep. A citation may wrap across lines and comment
// markers.
func badDesignRefs(t *testing.T, dir string) (bad []string) {
	doc, err := os.ReadFile(filepath.Join(dir, "DESIGN.md"))
	titles := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#+ (?:[0-9.]+ )?(.+)$`).FindAllStringSubmatch(string(doc), -1) {
		titles[m[1]] = true
	}
	wrap, ref := regexp.MustCompile(`\s*\n\s*(?:// ?|# ?)?`), regexp.MustCompile(`DESIGN\.md (?:"([^"]+)"|§)`)
	err = cmp.Or(err, filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && (d.Name() == "bench" || d.Name() == ".git") {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || !slices.Contains([]string{".go", ".md", ".yml"}, filepath.Ext(path)) || d.Name() == "CHANGES.md" || d.Name() == "ISSUE.md" {
			return nil
		}
		text, err := os.ReadFile(path)
		for _, m := range ref.FindAllStringSubmatch(wrap.ReplaceAllString(string(text), " "), -1) {
			if rel, _ := filepath.Rel(dir, path); !titles[m[1]] {
				bad = append(bad, rel+": "+m[0])
			}
		}
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// TestDesignReferencesResolve: every DESIGN.md citation in the
// repository names a heading DESIGN.md has. Its negative control is a
// synthetic tree citing a missing title from Go and from a top-level
// note, and a section number; the same citation in CHANGES.md and
// ISSUE.md is not read.
func TestDesignReferencesResolve(t *testing.T) {
	if bad := badDesignRefs(t, repo); len(bad) > 0 {
		t.Errorf("citations of DESIGN.md that name no heading of it:\n%s", strings.Join(bad, "\n"))
	}
	const cite = "DESIGN" + ".md " // spelled apart, so this file cites nothing
	dir := t.TempDir()
	writeFile(t, dir, "DESIGN.md", "# D\n\n## 4. Storage stack\n\n### Faulty\n")
	writeFile(t, dir, "a.go", "// See "+cite+"\"Storage\n// stack\" and "+cite+"\"Faulty\";\n// "+cite+"\"Mirror\" is gone.\n")
	writeFile(t, dir, "b.yml", "# "+cite+"§4m\n")
	for _, note := range []string{"CHANGES.md", "ISSUE.md", "NOTES.md"} {
		writeFile(t, dir, note, cite+"\"Mirror\"\n")
	}
	want := []string{"NOTES.md: " + cite + "\"Mirror\"", "a.go: " + cite + "\"Mirror\"", "b.yml: " + cite + "§"}
	if bad := badDesignRefs(t, dir); !slices.Equal(bad, want) {
		t.Errorf("negative control: found %q, want %q", bad, want)
	}
}
