package gfs

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
)

func modelRun(t *testing.T, dirs []string, fn func(mt *machine.T, fs *Model)) machine.EraResult {
	t.Helper()
	m := machine.New(machine.Options{})
	fs := NewModel(m, dirs)
	return m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) { fn(mt, fs) })
}

func TestModelCreateWriteReadBack(t *testing.T) {
	res := modelRun(t, []string{"spool"}, func(mt *machine.T, fs *Model) {
		fd, ok := fs.Create(mt, "spool", "msg")
		if !ok {
			mt.Failf("create failed")
		}
		fs.Append(mt, fd, []byte("hello "))
		fs.Append(mt, fd, []byte("world"))
		fs.Close(mt, fd)

		rfd, ok := fs.Open(mt, "spool", "msg")
		if !ok {
			mt.Failf("open failed")
		}
		if got := fs.Size(mt, rfd); got != 11 {
			mt.Failf("size=%d", got)
		}
		data := fs.ReadAt(mt, rfd, 0, 100)
		if string(data) != "hello world" {
			mt.Failf("read %q", data)
		}
		if part := fs.ReadAt(mt, rfd, 6, 5); string(part) != "world" {
			mt.Failf("partial read %q", part)
		}
		if tail := fs.ReadAt(mt, rfd, 11, 5); len(tail) != 0 {
			mt.Failf("read past EOF returned %q", tail)
		}
		// off+n past the top of uint64 means "to the end", not a wrapped
		// (negative) length.
		if rest := fs.ReadAt(mt, rfd, 6, math.MaxUint64); string(rest) != "world" {
			mt.Failf("read to the end with a wrapping length returned %q", rest)
		}
		fs.Close(mt, rfd)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelCreateExistingFails(t *testing.T) {
	res := modelRun(t, []string{"d"}, func(mt *machine.T, fs *Model) {
		if _, ok := fs.Create(mt, "d", "x"); !ok {
			mt.Failf("first create failed")
		}
		if _, ok := fs.Create(mt, "d", "x"); ok {
			mt.Failf("duplicate create succeeded")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelLinkSharesInode(t *testing.T) {
	res := modelRun(t, []string{"spool", "u0"}, func(mt *machine.T, fs *Model) {
		fd, _ := fs.Create(mt, "spool", "tmp")
		fs.Append(mt, fd, []byte("mail"))
		fs.Close(mt, fd)
		if !fs.Link(mt, "spool", "tmp", "u0", "msg1") {
			mt.Failf("link failed")
		}
		if fs.Link(mt, "spool", "tmp", "u0", "msg1") {
			mt.Failf("link over existing target succeeded")
		}
		fs.Delete(mt, "spool", "tmp")
		rfd, ok := fs.Open(mt, "u0", "msg1")
		if !ok {
			mt.Failf("open after delete of other link failed")
		}
		if got := fs.ReadAt(mt, rfd, 0, 10); string(got) != "mail" {
			mt.Failf("read %q", got)
		}
		fs.Close(mt, rfd)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelListSorted(t *testing.T) {
	res := modelRun(t, []string{"d"}, func(mt *machine.T, fs *Model) {
		for _, n := range []string{"zz", "aa", "mm"} {
			fd, _ := fs.Create(mt, "d", n)
			fs.Close(mt, fd)
		}
		got := fs.List(mt, "d")
		want := []string{"aa", "mm", "zz"}
		for i := range want {
			if got[i] != want[i] {
				mt.Failf("list = %v", got)
			}
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelDataSurvivesCrashFDsDoNot(t *testing.T) {
	m := machine.New(machine.Options{})
	fs := NewModel(m, []string{"d"})
	var fd FD
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		fd, _ = fs.Create(mt, "d", "f")
		fs.Append(mt, fd, []byte("durable"))
	})
	if res.Outcome != machine.Done {
		t.Fatalf("setup: %+v", res)
	}
	m.CrashReset()
	// Data survived:
	if got := fs.PeekDir("d")["f"]; !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("data lost at crash: %q", got)
	}
	// The descriptor did not:
	res = m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		fs.Append(mt, fd, []byte("x"))
	})
	if res.Outcome != machine.Violation || !strings.Contains(res.Err.Error(), "lost at crash") {
		t.Fatalf("stale fd not caught: %+v", res)
	}
}

func TestModelUnknownDirectoryIsUB(t *testing.T) {
	res := modelRun(t, []string{"d"}, func(mt *machine.T, fs *Model) {
		fs.List(mt, "nope")
	})
	if res.Outcome != machine.Violation || !strings.Contains(res.Err.Error(), "unknown directory") {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelUseAfterCloseIsUB(t *testing.T) {
	res := modelRun(t, []string{"d"}, func(mt *machine.T, fs *Model) {
		fd, _ := fs.Create(mt, "d", "f")
		fs.Close(mt, fd)
		fs.Append(mt, fd, []byte("x"))
	})
	if res.Outcome != machine.Violation || !strings.Contains(res.Err.Error(), "closed descriptor") {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelReadOnAppendFDIsUB(t *testing.T) {
	res := modelRun(t, []string{"d"}, func(mt *machine.T, fs *Model) {
		fd, _ := fs.Create(mt, "d", "f")
		fs.ReadAt(mt, fd, 0, 1)
	})
	if res.Outcome != machine.Violation || !strings.Contains(res.Err.Error(), "read-mode") {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelAppendOnReadFDIsUB(t *testing.T) {
	res := modelRun(t, []string{"d"}, func(mt *machine.T, fs *Model) {
		fd, _ := fs.Create(mt, "d", "f")
		fs.Close(mt, fd)
		rfd, _ := fs.Open(mt, "d", "f")
		fs.Append(mt, rfd, []byte("x"))
	})
	if res.Outcome != machine.Violation || !strings.Contains(res.Err.Error(), "append-mode") {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelOversizeAppendIsUB(t *testing.T) {
	res := modelRun(t, []string{"d"}, func(mt *machine.T, fs *Model) {
		fd, _ := fs.Create(mt, "d", "f")
		fs.Append(mt, fd, make([]byte, MaxAppend+1))
	})
	if res.Outcome != machine.Violation || !strings.Contains(res.Err.Error(), "atomic limit") {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelLinkFromMissingSourceIsUB(t *testing.T) {
	res := modelRun(t, []string{"a", "b"}, func(mt *machine.T, fs *Model) {
		fs.Link(mt, "a", "ghost", "b", "x")
	})
	if res.Outcome != machine.Violation {
		t.Fatalf("res=%+v", res)
	}
}

func TestModelDeleteMissingReturnsFalse(t *testing.T) {
	res := modelRun(t, []string{"d"}, func(mt *machine.T, fs *Model) {
		if fs.Delete(mt, "d", "ghost") {
			mt.Failf("delete of missing file returned true")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

// fileLife is one message's whole life on a model: spooled, synced,
// published by a link, read back, listed and deleted.
func fileLife(mt *machine.T, fs *Model, body []byte) {
	fd, ok := fs.Create(mt, "spool", "tmp0")
	if !ok || !fs.Append(mt, fd, body) || !fs.Sync(mt, fd) || !fs.Link(mt, "spool", "tmp0", "box", "msg0") {
		mt.Failf("spooling failed")
	}
	fs.Close(mt, fd)
	fs.Delete(mt, "spool", "tmp0")
	rfd, ok := fs.Open(mt, "box", "msg0")
	if !ok || len(fs.ReadAt(mt, rfd, 0, uint64(len(body)))) != len(body) {
		mt.Failf("read back failed")
	}
	fs.Close(mt, rfd)
	if len(fs.List(mt, "box")) != 1 || !fs.Delete(mt, "box", "msg0") {
		mt.Failf("list/delete failed")
	}
}

// fileLifeTrace is what fileLife traces on a fresh model.
var fileLifeTrace = []string{
	"t0: fs.create spool/tmp0 -> ino 1",
	"t0: fs.append spool/tmp0 += 5 bytes",
	"t0: fs.sync spool/tmp0 @ 5 bytes",
	"t0: fs.link spool/tmp0 -> box/msg0 (ino 1)",
	"t0: fs.delete spool/tmp0",
	"t0: fs.open box/msg0 -> ino 1",
	"t0: fs.list box -> 1 entries",
	"t0: fs.delete box/msg0",
}

// TestUntracedModelAllocs: with no trace attached the model formats
// nothing — no boxed trace argument, no rendered descriptor name — so a
// file's whole life allocates only what the model keeps or hands back:
// the two descriptors, the contents, the read buffer and the listing.
// The traced control runs the same life and still prints every line.
func TestUntracedModelAllocs(t *testing.T) {
	body := []byte("hello")
	life := func(depth int) (allocs float64, trace []string) {
		m := machine.New(machine.Options{TraceDepth: depth})
		fs := NewModel(m, []string{"spool", "box"})
		res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			fileLife(mt, fs, body)
			trace = append(trace, m.Trace()...)
			allocs = testing.AllocsPerRun(100, func() { fileLife(mt, fs, body) })
		})
		if res.Outcome != machine.Done {
			t.Fatalf("res=%+v", res)
		}
		return allocs, trace
	}
	untraced, none := life(0)
	if untraced != 5 || len(none) != 0 {
		t.Errorf("untraced file life: %v allocations and %d trace lines, want 5 and none", untraced, len(none))
	}
	traced, lines := life(machine.TraceAll)
	if !slices.Equal(lines, fileLifeTrace) {
		t.Errorf("traced file life printed\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(fileLifeTrace, "\n"))
	}
	if traced <= untraced {
		t.Errorf("traced file life: %v allocations, no more than untraced %v: is the trace attached?", traced, untraced)
	}
	t.Logf("file life: %v allocations untraced, %v traced", untraced, traced)
}
