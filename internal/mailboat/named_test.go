package mailboat

import (
	"testing"

	"repro/internal/gfs"
	"repro/internal/machine"
)

// TestNamedApplyIdempotence pins the replication surface's contract:
// DeliverAs under a fixed name is idempotent on (name, contents),
// conflicts on contents mismatch, and DeleteAs treats absence as the
// already-done outcome.
func TestNamedApplyIdempotence(t *testing.T) {
	c := Config{Users: 1, RandBound: 8}
	m := machine.New(machine.Options{})
	fs := gfs.NewModel(m, Dirs(c))
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		mb := Init(mt, nil, fs, c)
		if st := mb.DeliverAs(mt, 0, "msg3", []byte("hello")); st != Applied {
			mt.Failf("first DeliverAs: %v", st)
		}
		if st := mb.DeliverAs(mt, 0, "msg3", []byte("hello")); st != AlreadyApplied {
			mt.Failf("duplicate DeliverAs: %v", st)
		}
		if st := mb.DeliverAs(mt, 0, "msg3", []byte("other")); st != NameTaken {
			mt.Failf("conflicting DeliverAs: %v", st)
		}
		box := mb.ReadBox(mt, 0)
		if len(box) != 1 || box[0].ID != "msg3" || box[0].Contents != "hello" {
			mt.Failf("ReadBox: %v", box)
		}
		if st := mb.DeleteAs(mt, 0, "msg3"); st != Applied {
			mt.Failf("DeleteAs: %v", st)
		}
		if st := mb.DeleteAs(mt, 0, "msg3"); st != AlreadyApplied {
			mt.Failf("duplicate DeleteAs: %v", st)
		}
		if box := mb.ReadBox(mt, 0); len(box) != 0 {
			mt.Failf("box survives delete: %v", box)
		}
		// No spool debris: every DeliverAs cleaned up after itself.
		if names := fs.List(mt, SpoolDir); len(names) != 0 {
			mt.Failf("spool debris: %v", names)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
}
