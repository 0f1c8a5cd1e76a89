package mailboatd

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/repl"
)

// TestFencedPrimaryIsDegraded: a primary whose backup has persisted a
// higher epoch (marker e5) fails its boot catch-up — the backup fences
// every frame of the primary's lower epoch — and answers 451 to every
// delivery. Its verdict must say so: stale, so degraded. The daemon's
// own health formula, before the supervisor's verdict replaced it,
// reported {Epoch:1 PeerReachable:true Degraded:false} here, and
// /healthz answered 200 over a pair that could not replicate.
func TestFencedPrimaryIsDegraded(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

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
