package admin_test

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/repl"
)

// replicaRig boots a replicated pair over loopback TCP, each node on a
// fresh store, and serves the primary's admin surface. A non-empty fence
// is an epoch marker persisted in the backup's repl.MetaDir before it
// boots, as if it had been promoted in that epoch.
func replicaRig(t *testing.T, fence string) (*mailboatd.Adapter, *httptest.Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baddr := lis.Addr().String()
	lis.Close()

	broot := t.TempDir()
	if fence != "" {
		if err := os.MkdirAll(filepath.Join(broot, repl.MetaDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(broot, repl.MetaDir, fence), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	backup, err := mailboatd.NewWithOptions(broot, mailboatd.Options{
		Users:   2,
		Seed:    2,
		Replica: &mailboatd.ReplicaOptions{ListenAddr: baddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backup.Close)

	reg := obs.NewRegistry()
	primary, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{
		Users:   2,
		Seed:    1,
		Metrics: reg,
		Replica: &mailboatd.ReplicaOptions{
			Primary:      true,
			PeerAddr:     baddr,
			CallTimeout:  time.Second,
			RetryBackoff: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)

	srv := httptest.NewServer(admin.Handler(reg, nil, primary.MirrorStatus, primary, nil, primary.ReplHealth, primary.ShedStatus))
	t.Cleanup(srv.Close)
	return primary, srv
}

// TestAdminReplicaHealth boots a real replicated pair over loopback TCP
// and drives the admin surface end to end: a healthy /healthz answers
// 200 with the replication snapshot (role, epoch, last-resync time),
// /metrics serves the repl_* families, and opening the partition gate
// degrades /healthz to a 503 carrying the snapshot.
func TestAdminReplicaHealth(t *testing.T) {
	primary, srv := replicaRig(t, "")
	if err := primary.Deliver(0, []byte("replicated mail")); err != nil {
		t.Fatalf("replicated Deliver: %v", err)
	}

	// Healthy: 200 with the replication snapshot riding along.
	var health struct {
		Status      string `json:"status"`
		Replication *struct {
			Role           string `json:"role"`
			Epoch          uint64 `json:"epoch"`
			LastResyncUnix int64  `json:"last_resync_unix"`
			PeerReachable  bool   `json:"peer_reachable"`
			Degraded       bool   `json:"degraded"`
		} `json:"replication"`
	}
	body := get(t, srv.URL+"/healthz", 200)
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Replication == nil {
		t.Fatalf("healthy /healthz missing replication snapshot: %s", body)
	}
	if health.Replication.Role != "primary" || !health.Replication.PeerReachable || health.Replication.Degraded {
		t.Fatalf("unexpected replication snapshot: %s", body)
	}

	// The repl_* families are live on /metrics.
	metrics := get(t, srv.URL+"/metrics", 200)
	for _, want := range []string{"repl_epoch", "repl_role_primary 1", "repl_replicate_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Partition the replication link: the pair can no longer tolerate
	// losing the primary, so /healthz degrades to 503 with the snapshot.
	primary.ReplTransport().Partition(true)
	body = get(t, srv.URL+"/healthz", 503)
	var degraded struct {
		Role          string `json:"role"`
		PeerReachable bool   `json:"peer_reachable"`
		Degraded      bool   `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(body), &degraded); err != nil {
		t.Fatalf("degraded /healthz JSON: %v\n%s", err, body)
	}
	if !degraded.Degraded || degraded.PeerReachable || degraded.Role != "primary" {
		t.Fatalf("degraded /healthz snapshot: %s", body)
	}

	// Heal: back to 200.
	primary.ReplTransport().Partition(false)
	get(t, srv.URL+"/healthz", 200)
}

// TestAdminFencedPrimaryHealthz: a primary whose backup persisted a
// higher epoch fails its boot catch-up and refuses every delivery, so its
// /healthz must answer 503 with the stale, degraded verdict — never the
// 200 an operator would read as "in sync".
func TestAdminFencedPrimaryHealthz(t *testing.T) {
	_, srv := replicaRig(t, "e5")
	body := get(t, srv.URL+"/healthz", 503)
	var h struct {
		Role     string `json:"role"`
		Stale    bool   `json:"stale"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("fenced /healthz JSON: %v\n%s", err, body)
	}
	if h.Role != "primary" || !h.Stale || !h.Degraded {
		t.Fatalf("fenced /healthz snapshot: %s", body)
	}
}

// TestAdminDeadStorePrimaryHealthz: a replicated primary whose own store
// is latched dead (the FailStopReplica kill switch) cannot be lost
// without losing the pair's only live copy, so /healthz answers 503 with
// the verdict naming the dead store.
func TestAdminDeadStorePrimaryHealthz(t *testing.T) {
	primary, srv := replicaRig(t, "")
	if err := primary.Deliver(0, []byte("replicated mail")); err != nil {
		t.Fatalf("replicated Deliver: %v", err)
	}
	get(t, srv.URL+"/healthz", 200)
	primary.FailStopReplica(0)
	body := get(t, srv.URL+"/healthz", 503)
	var h struct {
		Role      string `json:"role"`
		StoreDead bool   `json:"store_dead"`
		Degraded  bool   `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("dead-store /healthz JSON: %v\n%s", err, body)
	}
	if h.Role != "primary" || !h.StoreDead || !h.Degraded {
		t.Fatalf("dead-store /healthz snapshot: %s", body)
	}
}
