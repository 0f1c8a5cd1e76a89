package admin_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/admin"
	"repro/internal/gfs"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/pop3"
	"repro/internal/smtp"
)

// TestAdminEndToEnd is the in-tree version of the acceptance drill:
// boot the full server stack with metrics wired through every layer,
// push real SMTP/POP3 traffic, then scrape /metrics and check the
// deliver/pickup counters and latency histograms are live and nonzero.
func TestAdminEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	adapter, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{
		Users:   4,
		Seed:    1,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adapter.Close)

	ss := smtp.NewServer(adapter, adapter.Users())
	ss.Metrics = smtp.NewMetrics(reg)
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(sl)
	t.Cleanup(func() { ss.Close() })

	ps := pop3.NewServer(adapter, adapter.Users())
	ps.Metrics = pop3.NewMetrics(reg)
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ps.Serve(pl)
	t.Cleanup(func() { ps.Close() })

	srv := httptest.NewServer(admin.Handler(reg, func() error { return nil }, adapter.MirrorStatus, adapter, nil, nil, adapter.ShedStatus))
	t.Cleanup(srv.Close)

	// Drive one delivery and one pickup over the wire.
	s := dialLine(t, sl.Addr().String())
	s.cmd(t, "", "220")
	s.cmd(t, "MAIL FROM:<x@y>", "250")
	s.cmd(t, "RCPT TO:<user1@z>", "250")
	s.cmd(t, "DATA", "354")
	fmt.Fprintf(s.conn, "observable mail\r\n.\r\n")
	s.cmd(t, "", "250")
	s.cmd(t, "QUIT", "221")

	p := dialLine(t, pl.Addr().String())
	p.cmd(t, "", "+OK")
	p.cmd(t, "USER user1", "+OK")
	p.cmd(t, "PASS x", "+OK maildrop has 1")
	p.cmd(t, "DELE 1", "+OK")
	p.cmd(t, "QUIT", "+OK")

	checkHealthy(t, get(t, srv.URL+"/healthz", http.StatusOK))

	metrics := get(t, srv.URL+"/metrics", http.StatusOK)
	for _, want := range []string{
		// Library layer: the delivery and pickup were counted and timed.
		"mailboat_deliver_attempts_total 1",
		"mailboat_deliver_committed_total 1",
		"mailboat_pickup_messages_total 1",
		"mailboat_deliver_seconds_count 1",
		"mailboat_pickup_seconds_count 1",
		"mailboat_delete_total 1",
		"mailboat_recover_total 1",
		// File-system layer: spool create happened and was timed.
		`gfs_ops_total{op="create"} `,
		`gfs_op_seconds_count{op="create"} `,
		// Adapter layer: outcomes by op.
		`mailboatd_ops_total{op="deliver",outcome="ok"} 1`,
		`mailboatd_ops_total{op="pickup",outcome="ok"} 1`,
		// Front ends: per-verb command counters and connection gauges.
		`smtp_commands_total{verb="DATA"} 1`,
		"smtp_connections_accepted_total 1",
		`pop3_commands_total{verb="PASS"} 1`,
		"pop3_connections_accepted_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", metrics)
	}
}

// TestAdminMirrorDegradedHealthz drills the mirrored health surface end
// to end: healthy answers plain "ok"; after a replica fail-stops and
// the store notices, /healthz flips to 503 with the per-replica status
// as JSON and /metrics carries the mirror counters; a reboot (which
// resilvers) restores the plain 200 "ok".
func TestAdminMirrorDegradedHealthz(t *testing.T) {
	reg := obs.NewRegistry()
	root0, root1 := t.TempDir(), t.TempDir()
	adapter, err := mailboatd.NewWithOptions(root0, mailboatd.Options{
		Users:      2,
		Seed:       1,
		MirrorRoot: root1,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(admin.Handler(reg, nil, adapter.MirrorStatus, adapter, nil, nil, adapter.ShedStatus))
	t.Cleanup(srv.Close)

	checkHealthy(t, get(t, srv.URL+"/healthz", http.StatusOK))

	// Kill the published replica; the next store operation notices,
	// fails the read over, and flips the mirror to degraded.
	if err := adapter.Deliver(0, []byte("pre-kill")); err != nil {
		t.Fatal(err)
	}
	adapter.FailStopReplica(0)
	msgs, _ := adapter.Pickup(0)
	adapter.Unlock(0)
	if len(msgs) != 1 || msgs[0].Contents != "pre-kill" {
		t.Fatalf("pickup after replica kill did not fail over: %+v", msgs)
	}

	body := get(t, srv.URL+"/healthz", http.StatusServiceUnavailable)
	var st gfs.MirrorStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("degraded /healthz is not JSON: %v (body %q)", err, body)
	}
	if !st.Degraded || st.Replicas[0].Live || !st.Replicas[1].Live {
		t.Fatalf("degraded /healthz status: %+v", st)
	}

	metrics := get(t, srv.URL+"/metrics", http.StatusOK)
	for _, want := range []string{
		"gfs_mirror_degraded 1",
		"gfs_mirror_failovers_total 1",
		`gfs_mirror_replica_failed_total{replica="0"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Reboot over the same roots: recovery resilvers the stale replica
	// and health goes back to the plain-text contract.
	adapter.Close()
	reg2 := obs.NewRegistry()
	adapter2, err := mailboatd.NewWithOptions(root0, mailboatd.Options{
		Users:      2,
		Seed:       2,
		MirrorRoot: root1,
		Metrics:    reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adapter2.Close)
	srv2 := httptest.NewServer(admin.Handler(reg2, nil, adapter2.MirrorStatus, adapter2, nil, nil, adapter2.ShedStatus))
	t.Cleanup(srv2.Close)
	checkHealthy(t, get(t, srv2.URL+"/healthz", http.StatusOK))
	metrics2 := get(t, srv2.URL+"/metrics", http.StatusOK)
	if !strings.Contains(metrics2, "gfs_mirror_resilver_runs_total 1") {
		t.Errorf("/metrics missing resilver run after reboot:\n%s", metrics2)
	}
}

// TestAdminScrubEndpoint drills the integrity surface end to end on a
// checksummed mirror: boot records a baseline pass, so GET /scrub
// reports ran=true and clean from the first request; an on-demand POST
// pass over the fresh store is clean; after a byte of one replica is
// flipped, a detect-only pass reports the damage and flips /healthz to
// 503; a healing pass repairs it and health recovers; the integrity
// counters show up on /metrics.
func TestAdminScrubEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	adapter, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{
		Users:      2,
		Seed:       1,
		MirrorRoot: t.TempDir(),
		Checksum:   true,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adapter.Close)
	srv := httptest.NewServer(admin.Handler(reg, nil, adapter.MirrorStatus, adapter, nil, nil, adapter.ShedStatus))
	t.Cleanup(srv.Close)

	if err := adapter.Deliver(0, []byte("scrub me")); err != nil {
		t.Fatal(err)
	}

	var st struct {
		Ran    bool             `json:"ran"`
		Report *gfs.ScrubReport `json:"report"`
	}
	decode := func(body string) {
		t.Helper()
		st.Ran, st.Report = false, nil
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/scrub is not JSON: %v (body %q)", err, body)
		}
	}

	decode(get(t, srv.URL+"/scrub", http.StatusOK))
	if !st.Ran || st.Report == nil || !st.Report.Clean() {
		t.Fatalf("boot baseline scrub not reported: %+v report %+v", st, st.Report)
	}

	decode(post(t, srv.URL+"/scrub?heal=1", http.StatusOK))
	if !st.Ran || st.Report == nil || st.Report.Checked == 0 || !st.Report.Clean() {
		t.Fatalf("clean-store scrub: %+v report %+v", st, st.Report)
	}

	path := adapter.CorruptReplica(0)
	if path == "" {
		t.Fatal("CorruptReplica found nothing to corrupt")
	}
	t.Logf("corrupted %s on replica 0", path)

	// Detect-only pass: damage reported, nothing healed, health degraded.
	decode(post(t, srv.URL+"/scrub", http.StatusOK))
	if st.Report == nil || st.Report.Corrupt == 0 || len(st.Report.Bad) == 0 {
		t.Fatalf("detect-only scrub missed the rot: %+v", st.Report)
	}
	get(t, srv.URL+"/healthz", http.StatusServiceUnavailable)
	if adapter.IntegrityDetected() == 0 {
		t.Error("detection counter still zero after scrub found rot")
	}

	// Healing pass: repaired from the good replica, health restored.
	decode(post(t, srv.URL+"/scrub?heal=1", http.StatusOK))
	if st.Report == nil || !st.Report.Clean() {
		t.Fatalf("healing scrub left damage: %+v", st.Report)
	}
	checkHealthy(t, get(t, srv.URL+"/healthz", http.StatusOK))
	msgs, _ := adapter.Pickup(0)
	adapter.Unlock(0)
	if len(msgs) != 1 || msgs[0].Contents != "scrub me" {
		t.Fatalf("pickup after heal: %+v", msgs)
	}

	metrics := get(t, srv.URL+"/metrics", http.StatusOK)
	for _, want := range []string{
		"gfs_integrity_detected_total",
		"gfs_integrity_healed_total",
		"gfs_integrity_scrub_seconds_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHealthzDegradedFromBoot: a message rotten on both replicas when
// the server comes up must show on /healthz from the first request.
// Boot recovery's one sweep is the only pass that has looked at the
// store by then — no separate baseline scrub runs — so this pins that
// its report reaches LastScrub, and that /metrics counts it as the one
// scrub pass it was.
func TestHealthzDegradedFromBoot(t *testing.T) {
	root0, root1 := t.TempDir(), t.TempDir()
	boot := func(reg *obs.Registry) *mailboatd.Adapter {
		a, err := mailboatd.NewWithOptions(root0, mailboatd.Options{
			Users: 2, Seed: 1, MirrorRoot: root1, Checksum: true, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := boot(obs.NewRegistry())
	if err := a.Deliver(0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if path := a.CorruptReplica(0); path == "" || a.CorruptReplica(1) != path {
		t.Fatalf("could not rot %q on both replicas", path)
	}
	a.Close()

	reg := obs.NewRegistry()
	a = boot(reg)
	t.Cleanup(a.Close)
	srv := httptest.NewServer(admin.Handler(reg, nil, a.MirrorStatus, a, nil, nil, a.ShedStatus))
	t.Cleanup(srv.Close)
	get(t, srv.URL+"/healthz", http.StatusServiceUnavailable)
	if metrics := get(t, srv.URL+"/metrics", http.StatusOK); !strings.Contains(metrics, "gfs_integrity_scrub_seconds_count 1\n") {
		t.Errorf("/metrics does not show exactly one scrub pass at boot")
	}
}

// TestScrubWithoutIntegrityLayer checks the no-op contract: a plain
// (non-checksummed) store has nothing to scrub, so POST answers 409 and
// /healthz keeps the plain 200.
func TestScrubWithoutIntegrityLayer(t *testing.T) {
	reg := obs.NewRegistry()
	adapter, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{Users: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adapter.Close)
	srv := httptest.NewServer(admin.Handler(reg, nil, adapter.MirrorStatus, adapter, nil, nil, adapter.ShedStatus))
	t.Cleanup(srv.Close)
	post(t, srv.URL+"/scrub?heal=1", http.StatusConflict)
	checkHealthy(t, get(t, srv.URL+"/healthz", http.StatusOK))
}

// TestHealthzWhileShedding: while the store sheds deliveries for
// space, /healthz answers 503 with the shed snapshot as JSON — the
// signal a load balancer uses to steer mail to a node with space —
// and returns to 200 (with the snapshot riding along) once released.
func TestHealthzWhileShedding(t *testing.T) {
	reg := obs.NewRegistry()
	adapter, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{Users: 1, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adapter.Close)
	srv := httptest.NewServer(admin.Handler(reg, nil, adapter.MirrorStatus, adapter, nil, nil, adapter.ShedStatus))
	t.Cleanup(srv.Close)

	checkHealthy(t, get(t, srv.URL+"/healthz", http.StatusOK))

	adapter.ForceNoSpace()
	var st mailboatd.ShedStatus
	body := get(t, srv.URL+"/healthz", http.StatusServiceUnavailable)
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("shedding /healthz body %q: %v", body, err)
	}
	if !st.Shedding || st.Reason == "" {
		t.Fatalf("shedding /healthz snapshot = %+v", st)
	}
	metrics := get(t, srv.URL+"/metrics", http.StatusOK)
	if !strings.Contains(metrics, "shed_active 1") {
		t.Errorf("/metrics missing shed_active 1 while shedding")
	}

	adapter.ReleaseNoSpace()
	body = get(t, srv.URL+"/healthz", http.StatusOK)
	if !strings.Contains(body, `"shed"`) {
		t.Errorf("healthy /healthz should include the shed snapshot: %q", body)
	}
}

func TestHealthzFailure(t *testing.T) {
	srv := httptest.NewServer(admin.Handler(obs.NewRegistry(), func() error {
		return errors.New("listener down")
	}, nil, nil, nil, nil, nil))
	defer srv.Close()
	if body := get(t, srv.URL+"/healthz", http.StatusServiceUnavailable); !strings.Contains(body, "listener down") {
		t.Errorf("/healthz body: %q", body)
	}
}

func TestPprofIndex(t *testing.T) {
	srv := httptest.NewServer(admin.Handler(obs.NewRegistry(), nil, nil, nil, nil, nil, nil))
	defer srv.Close()
	if body := get(t, srv.URL+"/debug/pprof/", http.StatusOK); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: %q", body)
	}
}

func post(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d (body %q)", url, resp.StatusCode, wantStatus, b)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func get(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type lineConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialLine(t *testing.T, addr string) *lineConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &lineConn{conn: c, r: bufio.NewReader(c)}
}

func (l *lineConn) cmd(t *testing.T, line, wantPrefix string) {
	t.Helper()
	if line != "" {
		fmt.Fprintf(l.conn, "%s\r\n", line)
	}
	resp, err := l.r.ReadString('\n')
	if err != nil {
		t.Fatalf("after %q: %v", line, err)
	}
	if !strings.HasPrefix(resp, wantPrefix) {
		t.Fatalf("after %q: got %q, want prefix %q", line, resp, wantPrefix)
	}
}
