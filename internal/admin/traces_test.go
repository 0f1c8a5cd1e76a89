package admin_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/admin"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/pop3"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// checkHealthy asserts a healthy /healthz body: JSON with status "ok"
// and the build version embedded.
func checkHealthy(t *testing.T, body string) {
	t.Helper()
	var st struct {
		Status  string `json:"status"`
		Version struct {
			Go       string `json:"go"`
			Revision string `json:"revision"`
		} `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/healthz is not JSON: %v (body %q)", err, body)
	}
	if st.Status != "ok" {
		t.Errorf("/healthz status %q, want ok (body %q)", st.Status, body)
	}
	if !strings.HasPrefix(st.Version.Go, "go") || st.Version.Revision == "" {
		t.Errorf("/healthz version incomplete: %+v", st.Version)
	}
}

func TestVersionEndpoint(t *testing.T) {
	srv := httptest.NewServer(admin.Handler(obs.NewRegistry(), nil, nil, nil, nil, nil, nil))
	defer srv.Close()
	var v admin.Version
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/version", http.StatusOK)), &v); err != nil {
		t.Fatalf("/version is not JSON: %v", err)
	}
	if !strings.HasPrefix(v.Go, "go") {
		t.Errorf("go version: %q", v.Go)
	}
	// Test binaries are built outside a VCS stamp; the fallback must
	// still be a non-empty, explicit marker.
	if v.Revision == "" {
		t.Error("revision empty; want a hash or \"unknown\"")
	}
}

// TestTracesDisabled: without a tracer the endpoints are absent, not
// half-broken.
func TestTracesDisabled(t *testing.T) {
	srv := httptest.NewServer(admin.Handler(obs.NewRegistry(), nil, nil, nil, nil, nil, nil))
	defer srv.Close()
	get(t, srv.URL+"/traces", http.StatusNotFound)
	get(t, srv.URL+"/traces/slow", http.StatusNotFound)
}

// TestTracedDeliveryEndToEnd is the acceptance drill for the tracing
// tentpole: boot the full stack (durable sync discipline, tracer wired
// through SMTP, the adapter, the verified library and the gfs layers),
// push one delivery and one pickup over the wire, and check that the
// delivery renders as a single trace of at least four correctly nested
// spans — verb, library op, publish stage, sync barrier — whose child
// durations sum within the root. Then scrape the same trace over the
// admin endpoints in both renderings.
func TestTracedDeliveryEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := trace.New(0, 0)
	tracer.Stages = trace.NewStageMetrics(reg)
	adapter, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{
		Users:         4,
		Seed:          1,
		SyncOnDeliver: true,
		SyncDirs:      true,
		Metrics:       reg,
		Tracer:        tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adapter.Close)

	ss := smtp.NewServer(adapter, adapter.Users())
	ss.Tracer = tracer
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(sl)
	t.Cleanup(func() { ss.Close() })

	ps := pop3.NewServer(adapter, adapter.Users())
	ps.Tracer = tracer
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ps.Serve(pl)
	t.Cleanup(func() { ps.Close() })

	srv := httptest.NewServer(admin.Handler(reg, nil, adapter.MirrorStatus, adapter, tracer, nil, adapter.ShedStatus))
	t.Cleanup(srv.Close)

	s := dialLine(t, sl.Addr().String())
	s.cmd(t, "", "220")
	s.cmd(t, "MAIL FROM:<x@y>", "250")
	s.cmd(t, "RCPT TO:<user1@z>", "250")
	s.cmd(t, "DATA", "354")
	fmt.Fprintf(s.conn, "traced mail\r\n.\r\n")
	s.cmd(t, "", "250")
	s.cmd(t, "QUIT", "221")

	p := dialLine(t, pl.Addr().String())
	p.cmd(t, "", "+OK")
	p.cmd(t, "USER user1", "+OK")
	p.cmd(t, "PASS x", "+OK maildrop has 1")
	p.cmd(t, "DELE 1", "+OK")
	p.cmd(t, "QUIT", "+OK")

	// The delivery trace: one root, correctly nested, ≥4 levels deep
	// (smtp.DATA → mailboat.deliver → syncdir.barrier → gfs.syncdir
	// under the durable discipline; the delivery stages are siblings).
	recent := tracer.Recent("deliver", 10)
	if len(recent) != 1 {
		t.Fatalf("want exactly 1 deliver trace, got %d", len(recent))
	}
	del := recent[0]
	if del.Root.Name != "smtp.DATA" {
		t.Errorf("deliver root span: %q", del.Root.Name)
	}
	if d := trace.Depth(del); d < 4 {
		var b strings.Builder
		trace.WriteText(&b, del)
		t.Errorf("deliver trace depth %d, want >= 4:\n%s", d, b.String())
	}
	// Validate enforces the timing invariants: every child inside its
	// parent's window, siblings non-overlapping, and each span's child
	// durations summing to no more than the span itself.
	if err := trace.Validate(del); err != nil {
		var b strings.Builder
		trace.WriteText(&b, del)
		t.Errorf("deliver trace invalid: %v\n%s", err, b.String())
	}
	for _, want := range []string{"mailboat.deliver", "spool.write", "publish.link", "syncdir.barrier"} {
		var b strings.Builder
		trace.WriteText(&b, del)
		if !strings.Contains(b.String(), want) {
			t.Errorf("deliver trace missing span %q:\n%s", want, b.String())
		}
	}

	// The pickup and delete verbs traced too.
	for _, op := range []string{"pickup", "delete"} {
		ts := tracer.Recent(op, 10)
		if len(ts) != 1 {
			t.Fatalf("want 1 %s trace, got %d", op, len(ts))
		}
		if err := trace.Validate(ts[0]); err != nil {
			t.Errorf("%s trace invalid: %v", op, err)
		}
	}

	// Admin surface, text rendering: the timeline shows the nested
	// span names.
	body := get(t, srv.URL+"/traces?op=deliver", http.StatusOK)
	for _, want := range []string{"smtp.DATA", "mailboat.deliver", "publish.link", "syncdir.barrier"} {
		if !strings.Contains(body, want) {
			t.Errorf("/traces?op=deliver missing %q:\n%s", want, body)
		}
	}
	slow := get(t, srv.URL+"/traces/slow?op=deliver", http.StatusOK)
	if !strings.Contains(slow, "smtp.DATA") {
		t.Errorf("/traces/slow?op=deliver missing the delivery:\n%s", slow)
	}

	// JSON rendering parses and carries the same structure.
	var traces []trace.TraceJSON
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/traces?op=deliver&format=json", http.StatusOK)), &traces); err != nil {
		t.Fatalf("/traces JSON: %v", err)
	}
	if len(traces) != 1 || traces[0].Op != "deliver" || traces[0].Root.Name != "smtp.DATA" {
		t.Errorf("/traces JSON shape: %+v", traces)
	}
	if len(traces[0].Root.Children) == 0 {
		t.Errorf("/traces JSON lost the span tree: %+v", traces[0].Root)
	}

	// Stage histograms fed from span durations are in the exposition.
	metrics := get(t, srv.URL+"/metrics", http.StatusOK)
	for _, want := range []string{
		`trace_stage_seconds_count{op="deliver",stage="spool.write"} 1`,
		`trace_stage_seconds_count{op="deliver",stage="publish.link"} 1`,
		`trace_stage_seconds_count{op="pickup",stage="mailbox.list"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Bad query parameters answer 400, not a panic or a silent default.
	get(t, srv.URL+"/traces?n=bogus", http.StatusBadRequest)
}
