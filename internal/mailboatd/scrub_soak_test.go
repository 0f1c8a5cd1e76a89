package mailboatd

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mailboat"
)

// TestChecksummedAdapterBasics covers the single-backend integrity
// surface: a checksummed adapter round-trips mail through envelopes on
// disk, scrubs clean, and — with no peer to heal from — answers
// corruption by refusing the file, never by serving mangled bytes.
func TestChecksummedAdapterBasics(t *testing.T) {
	root := t.TempDir()
	a, err := NewWithOptions(root, Options{Users: 2, Seed: 5, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Deliver(1, []byte("enveloped")); err != nil {
		t.Fatal(err)
	}
	msgs, _ := a.Pickup(1)
	a.Unlock(1)
	if len(msgs) != 1 || msgs[0].Contents != "enveloped" {
		t.Fatalf("pickup through envelopes: %+v", msgs)
	}

	rep, ok := a.Scrub(true)
	if !ok || rep.Checked == 0 || !rep.Clean() {
		t.Fatalf("clean-store scrub: ok=%v %+v", ok, rep)
	}
	if _, _, ran := a.LastScrub(); !ran {
		t.Fatal("LastScrub not recorded")
	}

	path := a.CorruptReplica(0)
	if path == "" {
		t.Fatal("CorruptReplica found nothing to corrupt")
	}
	msgs, err = a.Pickup(1)
	a.Unlock(1)
	if err != nil {
		t.Fatalf("pickup after corruption errored instead of skipping: %v", err)
	}
	for _, m := range msgs {
		if m.Contents != "enveloped" {
			t.Fatalf("pickup served mangled bytes: %q", m.Contents)
		}
	}
	if len(msgs) != 0 {
		t.Fatalf("rotten message still served: %+v", msgs)
	}
	if a.IntegrityDetected() == 0 {
		t.Error("corruption read back but never counted as detected")
	}
	rep, ok = a.Scrub(false)
	if !ok || rep.Corrupt == 0 || len(rep.Bad) == 0 {
		t.Fatalf("scrub missed the rot: ok=%v %+v", ok, rep)
	}

	// Reboot: single-backend recovery has no peer to heal from, but it
	// must come up, report the damage on a scrub, and keep serving the
	// healthy mail.
	a.Close()
	b, err := NewWithOptions(root, Options{Users: 2, Seed: 6, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if rep, _, ran := b.LastScrub(); !ran || rep.Clean() {
		t.Fatalf("boot scrub should have reported the rot: ran=%v %+v", ran, rep)
	}

	// The envelope really is on disk: the stored file is framed, not the
	// raw message bytes.
	entries, err := os.ReadDir(filepath.Join(root, mailboat.UserDir(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no stored message file")
	}
	raw, err := os.ReadFile(filepath.Join(root, mailboat.UserDir(1), entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) == "enveloped" {
		t.Fatal("stored file is raw bytes; envelope layer not in the stack")
	}
}
