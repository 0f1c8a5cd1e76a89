package gfs

import (
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// writebackSetup builds a writeback model with one durable entry and
// three un-synced directory operations, so the crash has four
// enumerable outcomes. Durable baseline (after SyncDir): d/base. The
// pending log is then [add x, add y, remove base], so the surviving
// prefixes are:
//
//	k=0: {base}          — roll back to the last SyncDir
//	k=1: {base, x}
//	k=2: {base, x, y}
//	k=3: {x, y}          — every pending op applied
//
// All file data is fsynced so only the "writeback" axis varies.
func writebackSetup(t *testing.T, chooser machine.Chooser) (*machine.Machine, *Model) {
	t.Helper()
	mm := machine.New(machine.Options{})
	fs := NewWritebackModel(mm, []string{"d"})
	res := mm.RunEra(chooser, false, func(mt *machine.T) {
		mkFile(t, fs, mt, "d", "base", "BASE")
		fs.SyncDir(mt, "d")
		mkFile(t, fs, mt, "d", "x", "XX")
		mkFile(t, fs, mt, "d", "y", "YY")
		fs.Delete(mt, "d", "base")
	})
	if res.Outcome != machine.Done {
		t.Fatalf("setup: %+v", res)
	}
	return mm, fs
}

// mkFile creates dir/name with the given fsynced contents.
func mkFile(t *testing.T, fs *Model, mt *machine.T, dir, name, data string) {
	t.Helper()
	fd, ok := fs.Create(mt, dir, name)
	if !ok {
		t.Fatalf("create %s/%s failed", dir, name)
	}
	fs.Append(mt, fd, []byte(data))
	fs.Sync(mt, fd)
	fs.Close(mt, fd)
}

func dirNames(fs *Model, dir string) []string {
	var out []string
	for name := range fs.PeekDir(dir) {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWritebackCrashEnumeratesDirPrefixes: the crash-time "writeback"
// choice selects which prefix of the pending directory-operation log
// survives — option 0 rolls back to the last SyncDir, the last option
// keeps every pending operation, and intermediate options land at every
// boundary in between (no holes: operations are lost newest-first).
func TestWritebackCrashEnumeratesDirPrefixes(t *testing.T) {
	want := map[int][]string{
		0: {"base"},
		1: {"base", "x"},
		2: {"base", "x", "y"},
		3: {"x", "y"},
	}
	for k, survivors := range want {
		pick := k
		chooser := machine.ChooserFunc(func(n int, tag string) int {
			if tag == "writeback" {
				if n != 4 {
					t.Errorf("writeback choice offered %d options, want 4", n)
				}
				return pick
			}
			return 0
		})
		mm, fs := writebackSetup(t, chooser)
		mm.CrashReset()
		if got := dirNames(fs, "d"); !sameNames(got, survivors) {
			t.Errorf("writeback choice %d: survived %v, want %v", k, got, survivors)
		}
	}
}

// TestWritebackCrashDefaultChooserRollsBackToSync: a chooserless crash
// (SeqChooser picks option 0) takes maximal loss — the directory rolls
// back to its last SyncDir — mirroring the "torn" convention so unit
// runs and replays without a recorded choice behave deterministically.
func TestWritebackCrashDefaultChooserRollsBackToSync(t *testing.T) {
	mm, fs := writebackSetup(t, machine.SeqChooser{})
	mm.CrashReset()
	if got := dirNames(fs, "d"); !sameNames(got, []string{"base"}) {
		t.Fatalf("survived %v, want rollback to last SyncDir", got)
	}
	// base's contents were fsynced before the SyncDir, so they survive
	// intact — the rollback resurrects the entry with its durable bytes.
	if got := string(fs.PeekDir("d")["base"]); got != "BASE" {
		t.Fatalf("resurrected entry has contents %q", got)
	}
}

// TestWritebackCrashClampsWildChoice: an out-of-range writeback choice
// (a stale or truncated replay script) clamps to option 0 instead of
// panicking, consistent with ScriptChooser's clamping.
func TestWritebackCrashClampsWildChoice(t *testing.T) {
	wild := machine.ChooserFunc(func(n int, tag string) int {
		if tag == "writeback" {
			return 99
		}
		return 0
	})
	mm, fs := writebackSetup(t, wild)
	mm.CrashReset()
	if got := dirNames(fs, "d"); !sameNames(got, []string{"base"}) {
		t.Fatalf("survived %v, want rollback (clamped choice)", got)
	}
}

// TestWritebackSyncDirIsABarrier: after SyncDir, even the maximal-loss
// crash keeps every operation that preceded the barrier.
func TestWritebackSyncDirIsABarrier(t *testing.T) {
	mm, fs := writebackSetup(t, machine.SeqChooser{})
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		fs.SyncDir(mt, "d")
	})
	if res.Outcome != machine.Done {
		t.Fatalf("syncdir era: %+v", res)
	}
	mm.CrashReset()
	if got := dirNames(fs, "d"); !sameNames(got, []string{"x", "y"}) {
		t.Fatalf("survived %v, want everything synced by the barrier", got)
	}
}

// TestWritebackCrashSurvivorsAreDurable: whatever directory view the
// crash kept is durable — a second crash with a maximal-loss chooser
// must not lose anything more.
func TestWritebackCrashSurvivorsAreDurable(t *testing.T) {
	keepAll := machine.ChooserFunc(func(n int, tag string) int {
		if tag == "writeback" || tag == "torn" {
			return n - 1
		}
		return 0
	})
	mm, fs := writebackSetup(t, keepAll)
	mm.CrashReset()
	if got := dirNames(fs, "d"); !sameNames(got, []string{"x", "y"}) {
		t.Fatalf("first crash survived %v", got)
	}
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {})
	if res.Outcome != machine.Done {
		t.Fatalf("recovery era: %+v", res)
	}
	mm.CrashReset()
	if got := dirNames(fs, "d"); !sameNames(got, []string{"x", "y"}) {
		t.Fatalf("second crash shrank the directory to %v", got)
	}
}

// TestWritebackCrashReclaimsOrphans: an inode reachable only through
// dropped pending entries is gone after the crash — its name can be
// recreated from scratch and lists stay clean.
func TestWritebackCrashReclaimsOrphans(t *testing.T) {
	mm, fs := writebackSetup(t, machine.SeqChooser{})
	mm.CrashReset()
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		// x and y were dropped; their names must be free again.
		mkFile(t, fs, mt, "d", "x", "fresh")
	})
	if res.Outcome != machine.Done {
		t.Fatalf("recreate era: %+v", res)
	}
	if got := string(fs.PeekDir("d")["x"]); got != "fresh" {
		t.Fatalf("recreated file reads %q", got)
	}
	// The dropped inodes must not linger in the inode table.
	if len(fs.inodes) != len(fs.synced) || len(fs.inodes) != 2 {
		t.Fatalf("inode table leaked orphans: %d inodes, %d synced entries",
			len(fs.inodes), len(fs.synced))
	}
}

// TestStrictAndBufferedModelsIgnoreWritebackChoice: only the writeback
// model consults the "writeback" tag — under strict or merely buffered
// durability directory operations are never deferred, so SyncDir is a
// no-op and the crash never branches on directory state.
func TestStrictAndBufferedModelsIgnoreWritebackChoice(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(m *machine.Machine) *Model
	}{
		{"strict", func(m *machine.Machine) *Model { return NewModel(m, []string{"d"}) }},
		{"buffered", func(m *machine.Machine) *Model { return NewBufferedModel(m, []string{"d"}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			consulted := false
			chooser := machine.ChooserFunc(func(n int, tag string) int {
				if tag == "writeback" {
					consulted = true
				}
				return 0
			})
			mm := machine.New(machine.Options{})
			fs := tc.mk(mm)
			res := mm.RunEra(chooser, false, func(mt *machine.T) {
				mkFile(t, fs, mt, "d", "f", "data")
				if !fs.SyncDir(mt, "d") {
					t.Error("SyncDir failed on the model")
				}
				fs.Delete(mt, "d", "f")
			})
			if res.Outcome != machine.Done {
				t.Fatalf("setup: %+v", res)
			}
			mm.CrashReset()
			if consulted {
				t.Fatal("non-writeback model consulted the writeback choice")
			}
			if _, ok := fs.PeekDir("d")["f"]; ok {
				t.Fatal("durable delete rolled back on a non-writeback model")
			}
		})
	}
}

// TestWritebackFailedSyncDirIsNotABarrier: a SyncDir that faults (via
// the Faulty middleware) must leave the pending log exactly as it was —
// the caller saw false, so nothing may have become durable.
func TestWritebackFailedSyncDirIsNotABarrier(t *testing.T) {
	mm := machine.New(machine.Options{})
	fs := NewWritebackModel(mm, []string{"d"})
	failSync := policyFunc(func(op fault.Class, index uint64) bool {
		return op == fault.Sync
	})
	sys := NewFaulty(fs, failSync)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		fd, ok := fs.Create(mt, "d", "f") // bypass Faulty for setup
		if !ok {
			t.Error("create failed")
			return
		}
		fs.Append(mt, fd, []byte("data"))
		fs.Sync(mt, fd)
		fs.Close(mt, fd)
		if sys.SyncDir(mt, "d") {
			t.Error("faulted SyncDir reported success")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("setup: %+v", res)
	}
	mm.CrashReset()
	if _, ok := fs.PeekDir("d")["f"]; ok {
		t.Fatal("entry survived the crash although its only SyncDir failed")
	}
}

// policyFunc adapts a function to the Policy interface for tests.
type policyFunc func(op fault.Class, index uint64) bool

func (f policyFunc) Decide(_ fault.T, op fault.Class, index uint64) bool { return f(op, index) }

// TestMirrorMarkersSurviveWritebackCrash: the mirror's bookkeeping
// writes reach a directory barrier. Over writeback backends, where a
// crash loses every directory operation since the last SyncDir, the
// survivor's generation bump outlives the crash, and a resilver that has
// equalized the generations leaves no copied entry pending anywhere.
func TestMirrorMarkersSurviveWritebackCrash(t *testing.T) {
	mm := machine.New(machine.Options{})
	var models [2]*Model
	var faulty [2]*Faulty
	for i := range models {
		models[i] = NewWritebackModel(mm, mirrorBackendDirs())
		faulty[i] = NewFaulty(models[i], fault.Never{})
	}
	era := func(body func(mt *machine.T)) {
		t.Helper()
		if res := mm.RunEra(machine.SeqChooser{}, false, body); res.Outcome != machine.Done {
			t.Fatalf("era: %+v", res)
		}
	}
	m := NewMirrored(faulty[0], faulty[1], mirrorDirs)
	faulty[0].FailStopNow("test")
	era(func(mt *machine.T) {
		fd, ok := m.Create(mt, "box", "m")
		if !ok || !m.Append(mt, fd, []byte("acked")) || !m.Sync(mt, fd) {
			t.Error("write failed")
		}
		m.Close(mt, fd)
		if !m.SyncDir(mt, "box") {
			t.Error("syncdir failed")
		}
	})
	mm.CrashReset() // SeqChooser: every unsynced directory operation is lost
	if got := len(models[1].PeekDir(MirrorMetaDir)); got != 1 {
		t.Fatalf("survivor lists %d generation markers after the crash, want 1", got)
	}

	// Reboot with replica 0's disk replaced; the resilver copies the
	// survivor over it and equalizes the generations.
	m = NewMirrored(NewFaulty(models[0], fault.Never{}), faulty[1], mirrorDirs)
	era(func(mt *machine.T) {
		if _, _, ok := m.Resilver(mt); !ok {
			t.Error("resilver failed")
		}
	})
	for i, fs := range models {
		for dir, ops := range fs.dirPending {
			t.Errorf("replica %d: %d operations on %s pending after the resilver", i, len(ops), dir)
		}
	}
	mm.CrashReset()
	for i, fs := range models {
		if got := dirNames(fs, "box"); !sameNames(got, []string{"m"}) {
			t.Errorf("replica %d: box holds %v after the second crash, want [m]", i, got)
		}
		if got := len(fs.PeekDir(MirrorMetaDir)); got != 1 {
			t.Errorf("replica %d: %d generation markers after the second crash, want 1", i, got)
		}
	}
}
