package mailboatd

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gfs"
	"repro/internal/mailboat"
)

// TestMirroredAdapterBasics covers the non-drill surface: mirrored
// boots deliver and pick up like the plain adapter, MirrorStatus
// reports healthy, both replicas hold the mail, and MirrorRoot+Fault is
// rejected.
func TestMirroredAdapterBasics(t *testing.T) {
	root0, root1 := t.TempDir(), t.TempDir()
	a, err := NewWithOptions(root0, Options{Users: 2, Seed: 3, MirrorRoot: root1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if a.Mirror() == nil {
		t.Fatal("Mirror() nil on a mirrored adapter")
	}
	if st := a.MirrorStatus(); st == nil || st.Degraded {
		t.Fatalf("fresh mirror unhealthy: %+v", st)
	}
	if err := a.Deliver(0, []byte("both copies")); err != nil {
		t.Fatal(err)
	}
	msgs, _ := a.Pickup(0)
	a.Unlock(0)
	if len(msgs) != 1 || msgs[0].Contents != "both copies" {
		t.Fatalf("pickup after mirrored deliver: %+v", msgs)
	}
	for _, root := range []string{root0, root1} {
		entries, err := os.ReadDir(filepath.Join(root, mailboat.UserDir(0)))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("replica under %s has %d messages, want 1", root, len(entries))
		}
	}

	if _, err := NewWithOptions(t.TempDir(), Options{
		Users:      1,
		MirrorRoot: t.TempDir(),
		Fault:      &FaultOptions{Rates: gfs.UniformRates(2)},
	}); err == nil {
		t.Fatal("MirrorRoot+Fault accepted")
	}

	// Non-mirrored adapters answer the mirror accessors with nils.
	p, err := New(t.TempDir(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Mirror() != nil || p.MirrorStatus() != nil {
		t.Fatal("plain adapter reports a mirror")
	}
	p.FailStopReplica(0) // must be a no-op, not a panic
}
