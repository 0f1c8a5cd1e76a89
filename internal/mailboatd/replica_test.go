package mailboatd

import (
	"errors"
	"io/fs"
	"maps"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mailboat"
	"repro/internal/repl"
)

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	return lis.Addr().String()
}

// TestFencedPrimaryIsDegraded: a primary whose backup has persisted a
// higher epoch (marker e5) fails its boot catch-up — the backup fences
// every frame of the primary's lower epoch — and answers 451 to every
// delivery. Its verdict must say so: stale, so degraded. The daemon's
// own health formula, before the supervisor's verdict replaced it,
// reported {Epoch:1 PeerReachable:true Degraded:false} here, and
// /healthz answered 200 over a pair that could not replicate.
func TestFencedPrimaryIsDegraded(t *testing.T) {
	addr := freeAddr(t)
	broot := t.TempDir()
	if err := os.MkdirAll(filepath.Join(broot, repl.MetaDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broot, repl.MetaDir, "e5"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	backup, err := NewWithOptions(broot, Options{Users: 1, Seed: 2, Replica: &ReplicaOptions{ListenAddr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backup.Close)
	primary, err := NewWithOptions(t.TempDir(), Options{Users: 1, Seed: 1, Replica: &ReplicaOptions{
		Primary: true, PeerAddr: addr, CallTimeout: time.Second, RetryBackoff: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)

	if err := primary.Deliver(0, []byte("fenced")); !errors.Is(err, ErrTransient) {
		t.Fatalf("delivery on a fenced primary: %v, want ErrTransient", err)
	}
	if h := primary.ReplHealth(); !h.Degraded || !h.Stale {
		t.Fatalf("fenced primary's verdict: %+v, want stale and degraded", *h)
	}
	if h := backup.ReplHealth(); h.Epoch != 5 {
		t.Fatalf("backup's epoch %d, want the persisted 5", h.Epoch)
	}
}

// storeFiles reads every file under root, keyed by its relative path.
func storeFiles(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path[len(root):]] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestFailStoppedPrimaryIsDegraded: FailStopReplica(0) latches a
// replicated node's own store, the quiet fault layer the checked node
// runs on too, and the node reads the latch itself. Its verdict is
// degraded with the store dead, and its supervisor's catch-up gives up at
// the fence: a rebooted backup (its apply cursor is volatile, so the next
// ping answers behind and the tick runs a catch-up) stays byte-identical
// across the ticks that follow. Before the replica ran on that layer the
// kill switch was a no-op on it and the verdict read in sync.
func TestFailStoppedPrimaryIsDegraded(t *testing.T) {
	addr, broot := freeAddr(t), t.TempDir()
	bopts := Options{Users: 1, Seed: 2, Replica: &ReplicaOptions{ListenAddr: addr}}
	backup, err := NewWithOptions(broot, bopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backup.Close() })
	primary, err := NewWithOptions(t.TempDir(), Options{Users: 1, Seed: 1, Replica: &ReplicaOptions{
		Primary: true, PeerAddr: addr, CallTimeout: time.Second, PingEvery: 2 * time.Millisecond, RetryBackoff: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	for _, msg := range []string{"one", "two"} {
		if err := primary.Deliver(0, []byte(msg)); err != nil {
			t.Fatalf("replicated Deliver: %v", err)
		}
	}
	if h := primary.ReplHealth(); h.Degraded || h.StoreDead {
		t.Fatalf("in-sync primary's verdict: %+v", *h)
	}

	primary.FailStopReplica(0)
	if h := primary.ReplHealth(); !h.Degraded || !h.StoreDead || h.Role != "primary" {
		t.Fatalf("dead primary's verdict: %+v, want degraded with its store dead", *h)
	}
	backup.Close()
	if backup, err = NewWithOptions(broot, bopts); err != nil {
		t.Fatal(err)
	}
	before := storeFiles(t, broot)
	for deadline := time.Now().Add(5 * time.Second); !primary.ReplHealth().Stale; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no tick found the rebooted backup behind")
		}
	}
	time.Sleep(20 * time.Millisecond) // about ten more ticks
	if after := storeFiles(t, broot); !maps.Equal(before, after) {
		t.Fatalf("the backup's store changed under a dead primary's ticks:\nbefore %v\nafter  %v", before, after)
	}
}

// TestDeadPrimaryReplicatesNothing: a primary whose own store is latched
// dead refuses a delivery or a delete before it replicates it. Each
// Deliver answers ErrTransient and the backup's user0 stays empty, so a
// sender's retries cannot pile copies onto the backup that the primary
// never acknowledged; a Delete answers ErrTransient and the backup keeps
// the message.
func TestDeadPrimaryReplicatesNothing(t *testing.T) {
	addr := freeAddr(t)
	backup, err := NewWithOptions(t.TempDir(), Options{Users: 2, Seed: 2, Replica: &ReplicaOptions{ListenAddr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backup.Close)
	primary, err := NewWithOptions(t.TempDir(), Options{Users: 2, Seed: 1, Replica: &ReplicaOptions{
		Primary: true, PeerAddr: addr, CallTimeout: time.Second, RetryBackoff: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	backupBox := func(user uint64) []mailboat.Message {
		t.Helper()
		msgs, err := backup.Pickup(user)
		backup.Unlock(user)
		if err != nil {
			t.Fatal(err)
		}
		return msgs
	}
	if err := primary.Deliver(1, []byte("kept")); err != nil {
		t.Fatalf("replicated Deliver: %v", err)
	}
	kept := backupBox(1)
	if len(kept) != 1 {
		t.Fatalf("backup's user1 holds %d messages, want 1", len(kept))
	}

	primary.FailStopReplica(0)
	for try := 1; try <= 2; try++ {
		if err := primary.Deliver(0, []byte("never acknowledged")); err != ErrTransient {
			t.Fatalf("Deliver %d on a dead primary: %v, want ErrTransient", try, err)
		}
		if n := len(backupBox(0)); n != 0 {
			t.Fatalf("after Deliver %d the backup's user0 holds %d message(s), want none", try, n)
		}
	}
	if err := primary.Delete(1, kept[0].ID); err != ErrTransient {
		t.Fatalf("Delete on a dead primary: %v, want ErrTransient", err)
	}
	if n := len(backupBox(1)); n != 1 {
		t.Fatalf("after the refused Delete the backup's user1 holds %d message(s), want 1", n)
	}
}
