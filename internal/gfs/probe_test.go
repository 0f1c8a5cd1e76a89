package gfs

import (
	"bytes"
	"testing"

	"repro/internal/machine"
)

// probeSetup builds a writeback model whose crash varies on both axes:
// the pending directory log [add x, add y, remove base] keeps one of
// four prefixes, and x, when it survives, one of three prefixes of its
// unsynced tail. When the crash drops x's entry, x is unreachable and
// offers no "torn" choice: ten crash states in all.
func probeSetup(t *testing.T, chooser machine.Chooser) (*machine.Machine, *Model) {
	t.Helper()
	mm := machine.New(machine.Options{})
	fs := NewWritebackModel(mm, []string{"d"})
	res := mm.RunEra(chooser, false, func(mt *machine.T) {
		mkFile(t, fs, mt, "d", "base", "BASE")
		fs.SyncDir(mt, "d")
		fd, _ := fs.Create(mt, "d", "x")
		fs.Append(mt, fd, []byte("XX"))
		fs.Sync(mt, fd)
		fs.Append(mt, fd, []byte("x1"))
		fs.Append(mt, fd, []byte("x2"))
		mkFile(t, fs, mt, "d", "y", "YY")
		fs.Delete(mt, "d", "base")
	})
	if res.Outcome != machine.Done {
		t.Fatalf("setup: %+v", res)
	}
	return mm, fs
}

// TestWritebackProbeMatchesCrashReset: for every vector of crash-time
// answers, the durable state ProbeCrash shows in place encodes exactly
// as the state a real CrashReset under the same answers leaves, and the
// probe puts back the state it found (open descriptor included).
func TestWritebackProbeMatchesCrashReset(t *testing.T) {
	mm, fs := probeSetup(t, machine.SeqChooser{})
	before := fs.AppendDurable(nil)
	open := fs.OpenFDs()
	type state struct {
		answers []machine.CrashAnswer
		durable []byte
	}
	var probed []state
	mm.ProbeCrash(func(answers []machine.CrashAnswer) {
		probed = append(probed, state{append([]machine.CrashAnswer(nil), answers...), fs.AppendDurable(nil)})
	})
	if len(probed) != 10 {
		t.Fatalf("ProbeCrash visited %d crash states, want 10", len(probed))
	}
	if !bytes.Equal(fs.AppendDurable(nil), before) || fs.OpenFDs() != open || open == 0 {
		t.Fatalf("the probe did not put the model back (%d open descriptors, %d before)", fs.OpenFDs(), open)
	}
	for _, p := range probed {
		next := 0
		chooser := machine.ChooserFunc(func(n int, tag string) int {
			if tag == "sched" {
				return 0
			}
			if next >= len(p.answers) || p.answers[next].Tag != tag || p.answers[next].N != n {
				t.Fatalf("%v: the crash asked %s over %d at answer %d", p.answers, tag, n, next)
			}
			next++
			return p.answers[next-1].Chosen
		})
		mm, fs := probeSetup(t, chooser)
		mm.CrashReset()
		if next != len(p.answers) {
			t.Fatalf("%v: the crash asked %d of its answers", p.answers, next)
		}
		if !bytes.Equal(fs.AppendDurable(nil), p.durable) {
			t.Errorf("%v: CrashReset leaves a durable state the probe did not show", p.answers)
		}
	}
}

// TestCrashDropsUnlinkedInodes: an inode no directory entry reaches is
// garbage once the crash has killed the descriptors that held it. On a
// buffered model a dirty one unlinked before the crash draws no "torn"
// choice, and on every model nothing of it is left behind.
func TestCrashDropsUnlinkedInodes(t *testing.T) {
	for _, build := range []func(*machine.Machine, []string) *Model{NewModel, NewBufferedModel, NewWritebackModel} {
		mm := machine.New(machine.Options{})
		fs := build(mm, []string{"d"})
		asked := map[string]int{}
		chooser := machine.ChooserFunc(func(n int, tag string) int {
			asked[tag]++
			return 0
		})
		res := mm.RunEra(chooser, false, func(mt *machine.T) {
			mkFile(t, fs, mt, "d", "keep", "KEEP")
			fs.SyncDir(mt, "d")
			fd, _ := fs.Create(mt, "d", "gone")
			fs.Append(mt, fd, []byte("dirty"))
			fs.SyncDir(mt, "d")
			fs.Delete(mt, "d", "gone")
			fs.SyncDir(mt, "d") // the descriptor stays open across the crash
		})
		if res.Outcome != machine.Done {
			t.Fatalf("setup: %+v", res)
		}
		mm.CrashReset()
		if asked["torn"] != 0 || asked["writeback"] != 0 {
			t.Errorf("buffered=%v writeback=%v: the crash drew %v for an unlinked inode", fs.buffered, fs.writeback, asked)
		}
		if len(fs.inodes) != 1 || len(fs.synced) > 1 || fs.SpaceUsed() != SpaceEntryCost+4 {
			t.Errorf("buffered=%v writeback=%v: %d inodes and %d synced entries left, %d bytes used; want only keep's",
				fs.buffered, fs.writeback, len(fs.inodes), len(fs.synced), fs.SpaceUsed())
		}
	}
}
