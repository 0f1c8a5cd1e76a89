package gfs

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// The error-path matrix: every failure mode the System API exposes,
// asserted identically over the model, the OS backend, and both wrapped
// in a no-op Faulty — one test body, four backends, via the shared
// interface. This is the §9.2 TCB argument applied to error paths: the
// model is only trustworthy if it fails exactly where the real file
// system fails.

// errorPathBody asserts every System error path using only interface
// behaviour (no backend internals), reporting failures through fail so
// the same body runs natively and inside a model era.
func errorPathBody(sys System, th T, fail func(format string, args ...any)) {
	// Create: fresh name succeeds, existing name fails (EEXIST).
	fd, ok := sys.Create(th, "d", "x")
	if !ok {
		fail("create of fresh name failed")
		return
	}
	if !sys.Append(th, fd, []byte("hello world")) {
		fail("append to fresh append-mode fd failed")
	}
	if !sys.Sync(th, fd) {
		fail("sync of healthy fd failed")
	}
	sys.Close(th, fd)
	if _, ok := sys.Create(th, "d", "x"); ok {
		fail("create of existing name succeeded")
	}

	// Open: absent name fails.
	if _, ok := sys.Open(th, "d", "ghost"); ok {
		fail("open of absent name succeeded")
	}

	// Delete: absent name fails.
	if sys.Delete(th, "d", "ghost") {
		fail("delete of absent name succeeded")
	}

	// Link: fresh target succeeds, existing target fails (EEXIST).
	if !sys.Link(th, "d", "x", "e", "y") {
		fail("link to fresh target failed")
	}
	if sys.Link(th, "d", "x", "e", "y") {
		fail("link over existing target succeeded")
	}

	// ReadAt: past-EOF reads are empty, straddling reads are truncated.
	rfd, ok := sys.Open(th, "d", "x")
	if !ok {
		fail("open of existing file failed")
		return
	}
	if got := sys.ReadAt(th, rfd, 100, 10); len(got) != 0 {
		fail("read past EOF returned %q", got)
	}
	if got := string(sys.ReadAt(th, rfd, 6, 64)); got != "world" {
		fail("straddling read returned %q, want %q", got, "world")
	}
	if got := sys.Size(th, rfd); got != 11 {
		fail("size=%d, want 11", got)
	}
	sys.Close(th, rfd)
}

var errorPathDirs = []string{"d", "e"}

func TestErrorPathsAllBackends(t *testing.T) {
	wrap := func(w func(System) System, mk func(t *testing.T) System) func(t *testing.T) System {
		return func(t *testing.T) System { return w(mk(t)) }
	}
	never := func(inner System) System { return NewFaulty(inner, fault.Never{}) }
	osBackend := func(t *testing.T) System { return newOSFS(t, errorPathDirs) }
	mirrorBackend := func(t *testing.T) System {
		metaDirs := append([]string{MirrorMetaDir}, errorPathDirs...)
		return NewMirrored(newOSFS(t, metaDirs), newOSFS(t, metaDirs), errorPathDirs)
	}

	// Native backends: OS bare, behind a quiet fault layer, and mirrored.
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) System
	}{
		{"os", osBackend},
		{"faulty(os,never)", wrap(never, osBackend)},
		{"mirrored(os,os)", mirrorBackend},
		{"faulty(mirrored,never)", wrap(never, mirrorBackend)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errorPathBody(tc.mk(t), NewNative(1), t.Errorf)
		})
	}

	// Model backends: same body inside one era.
	for _, tc := range []struct {
		name string
		wrap func(System) System
	}{
		{"model", func(s System) System { return s }},
		{"faulty(model,never)", never},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mm := machine.New(machine.Options{MaxSteps: 10000})
			fs := NewModel(mm, errorPathDirs)
			res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
				errorPathBody(tc.wrap(fs), mt, mt.Failf)
			})
			if res.Outcome != machine.Done {
				t.Fatalf("res=%+v", res)
			}
			if n := fs.OpenFDs(); n != 0 {
				t.Fatalf("%d fds leaked", n)
			}
		})
	}

	// Mirrored over two models: same body, both replicas fd-clean.
	t.Run("mirrored(model,model)", func(t *testing.T) {
		metaDirs := append([]string{MirrorMetaDir}, errorPathDirs...)
		mm := machine.New(machine.Options{MaxSteps: 20000})
		r0 := NewModel(mm, metaDirs)
		r1 := NewModel(mm, metaDirs)
		m := NewMirrored(r0, r1, errorPathDirs)
		res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			errorPathBody(m, mt, mt.Failf)
		})
		if res.Outcome != machine.Done {
			t.Fatalf("res=%+v", res)
		}
		if n0, n1 := r0.OpenFDs(), r1.OpenFDs(); n0 != 0 || n1 != 0 {
			t.Fatalf("leaked fds: r0=%d r1=%d", n0, n1)
		}
	})
}

// TestErrorPathsUnderAlwaysFaults checks that injected faults surface
// through the same error channels the API already has: a caller written
// against the documented failure modes needs no extra code to survive
// the fault layer.
func TestErrorPathsUnderAlwaysFaults(t *testing.T) {
	o := newOSFS(t, errorPathDirs)
	f := NewFaulty(o, fault.Always{})
	th := NewNative(1)

	if _, ok := f.Create(th, "d", "x"); ok {
		t.Fatal("faulted create succeeded")
	}
	// Set up a real file underneath, then fault every mutation on it.
	fd, ok := o.Create(th, "d", "x")
	if !ok {
		t.Fatal("inner create failed")
	}
	if !o.Append(th, fd, []byte("hello world")) {
		t.Fatal("inner append failed")
	}
	if f.Append(th, fd, []byte("MORE")) {
		t.Fatal("faulted append succeeded")
	}
	if f.Sync(th, fd) {
		t.Fatal("faulted sync succeeded")
	}
	o.Close(th, fd)
	if f.Link(th, "d", "x", "e", "y") {
		t.Fatal("faulted link succeeded")
	}
	if f.Delete(th, "d", "x") {
		t.Fatal("faulted delete succeeded")
	}

	rfd, ok := f.Open(th, "d", "x") // Open is never faulted
	if !ok {
		t.Fatal("open through fault layer failed")
	}
	defer f.Close(th, rfd)
	if got := string(f.ReadAt(th, rfd, 0, 64)); got != "hello " {
		t.Fatalf("short read returned %q, want %q", got, "hello ")
	}
	// The file underneath is whole.
	if got := string(o.ReadAt(th, rfd, 0, 64)); got != "hello world" {
		t.Fatalf("inner contents corrupted: %q", got)
	}
}

// TestOSAppendToReadFDReportsFailure pins the hardened OS behaviour:
// appending through a read-mode descriptor reports failure instead of
// panicking (the model flags the same misuse as UB, which the explorer
// reports — here the server must instead stay up).
func TestOSAppendToReadFDReportsFailure(t *testing.T) {
	o := newOSFS(t, errorPathDirs)
	th := NewNative(1)
	fd, _ := o.Create(th, "d", "x")
	o.Append(th, fd, []byte("data"))
	o.Close(th, fd)

	rfd, ok := o.Open(th, "d", "x")
	if !ok {
		t.Fatal("open failed")
	}
	defer o.Close(th, rfd)
	if o.Append(th, rfd, []byte("nope")) {
		t.Fatal("append to read-mode fd reported success")
	}
	if got := string(o.ReadAt(th, rfd, 0, 64)); got != "data" {
		t.Fatalf("contents changed: %q", got)
	}
}
