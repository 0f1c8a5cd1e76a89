package gfs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// exported renders reg in the exposition format and returns each
// series' value by its exposed name, labels included.
func exported(t *testing.T, reg *obs.Registry) map[string]string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			series[name] = v
		}
	}
	return series
}

// TestObservedCountsAndForwards drives the OS backend through the
// Observed middleware and checks that every call is forwarded
// behaviorally unchanged and counted into the per-op-class series the
// registry exports.
func TestObservedCountsAndForwards(t *testing.T) {
	osfs, err := NewOS(t.TempDir(), []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer osfs.CloseAll()

	reg := obs.NewRegistry()
	m := NewFSMetrics(reg)
	sys := NewObserved(osfs, m)
	th := NewNative(1)

	fd, ok := sys.Create(th, "a", "f1")
	if !ok {
		t.Fatal("create failed")
	}
	if !sys.Append(th, fd, []byte("hello")) {
		t.Fatal("append failed")
	}
	if !sys.Sync(th, fd) {
		t.Fatal("sync failed")
	}
	sys.Close(th, fd)
	if !sys.Link(th, "a", "f1", "b", "f2") {
		t.Fatal("link failed")
	}
	rfd, ok := sys.Open(th, "b", "f2")
	if !ok {
		t.Fatal("open failed")
	}
	if got := string(sys.ReadAt(th, rfd, 0, 16)); got != "hello" {
		t.Fatalf("readat = %q, want hello", got)
	}
	if sys.Size(th, rfd) != 5 {
		t.Fatal("size mismatch")
	}
	sys.Close(th, rfd)
	if names := sys.List(th, "a"); len(names) != 1 || names[0] != "f1" {
		t.Fatalf("list = %v", names)
	}
	if !sys.Delete(th, "a", "f1") {
		t.Fatal("delete failed")
	}

	want := map[string]uint64{
		"create": 1, "append": 1, "sync": 1, "close": 2, "link": 1,
		"open": 1, "readat": 1, "size": 1, "list": 1, "delete": 1,
		"syncdir": 0,
	}
	series := exported(t, reg)
	for op, n := range want {
		for _, name := range []string{"gfs_ops_total", "gfs_op_seconds_count"} {
			s := fmt.Sprintf("%s{op=%q}", name, op)
			if got := series[s]; got != fmt.Sprint(n) {
				t.Errorf("%s = %q, want %d", s, got, n)
			}
		}
	}
}

// TestFaultyFeedsFaultCounters checks that Faulty reports injected
// faults into FSMetrics and that the exposition carries the class label.
func TestFaultyFeedsFaultCounters(t *testing.T) {
	osfs, err := NewOS(t.TempDir(), []string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	defer osfs.CloseAll()

	reg := obs.NewRegistry()
	m := NewFSMetrics(reg)
	f := NewFaulty(osfs, fault.Always{Ops: map[fault.Class]bool{fault.Create: true}})
	f.Metrics = m
	sys := NewObserved(f, m)
	th := NewNative(1)

	for i := 0; i < 3; i++ {
		if _, ok := sys.Create(th, "d", "x"); ok {
			t.Fatal("create should have faulted")
		}
	}
	// Observed (stacked above Faulty) still counts the faulted calls.
	series := exported(t, reg)
	for _, s := range []string{
		`gfs_faults_injected_total{class="create"}`,
		`gfs_ops_total{op="create"}`,
		`gfs_op_seconds_count{op="create"}`,
	} {
		if got := series[s]; got != "3" {
			t.Errorf("%s = %q, want 3", s, got)
		}
	}
}

// TestObservedNilMetrics ensures the middleware works (as a no-op) with
// the zero FSMetrics, so callers can build the chain unconditionally.
func TestObservedNilMetrics(t *testing.T) {
	osfs, err := NewOS(t.TempDir(), []string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	defer osfs.CloseAll()
	sys := NewObserved(osfs, FSMetrics{})
	th := NewNative(1)
	fd, ok := sys.Create(th, "d", "f")
	if !ok {
		t.Fatal("create failed")
	}
	sys.Close(th, fd)
}
