package repro

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneMeasuringInstrument: numbers come from `go run ./bench`, and
// the committed BENCH_*.json trajectories have one schema and no
// writer in the tree. No non-test Go file outside bench/ may name a
// BENCH_ file (a second result writer starts by naming its output),
// and each file is exactly records[] — the `go run ./bench` pairs —
// plus the dated block of what the retired instruments left behind.
func TestOneMeasuringInstrument(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), "BENCH_") {
			t.Errorf("%s names a BENCH_ file: results are written by bench/ and by nothing else", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) != 2 {
		t.Fatalf("want the two committed trajectories, found %v (%v)", files, err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if got := strings.Join(keys, " "); got != "legacy records" {
			t.Errorf("%s has top-level keys %q, want exactly records and legacy", f, got)
		}
		var records []struct{ Schema, Command string }
		if err := json.Unmarshal(top["records"], &records); err != nil || len(records) == 0 {
			t.Fatalf("%s: records[] does not parse or is empty (%v)", f, err)
		}
		for i, r := range records {
			if r.Schema != "perennial-bench/v1" || !strings.HasPrefix(r.Command, "go run ./bench ") {
				t.Errorf("%s: records[%d] is %q from %q, want a perennial-bench/v1 record of a `go run ./bench` command", f, i, r.Schema, r.Command)
			}
		}
	}
}
