package admin_test

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/pop3"
	"repro/internal/smtp"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/series.golden")

// TestMetricsSeriesGolden pins the metric surface a daemon serves: the
// # HELP and # TYPE lines and every series' name and labels, values
// stripped. Two deployments carry every metric set between them: a
// mirrored, checksummed, traced store behind the SMTP and POP3 front
// ends, and a replicated pair, whose primary adds repl_* and net_*. Both
// are driven through one fixed, sequential traffic sequence, so the
// lazily registered trace_stage_seconds series are the same every run.
// Regenerate with -update.
func TestMetricsSeriesGolden(t *testing.T) {
	var got strings.Builder
	got.WriteString("## mirrored, checksummed, traced daemon behind SMTP and POP3\n")
	got.WriteString(seriesOf(t, mirroredDaemon(t)))
	primary, backup := replicatedPair(t)
	got.WriteString("## replicated primary\n")
	got.WriteString(seriesOf(t, primary))
	got.WriteString("## replicated backup\n")
	got.WriteString(seriesOf(t, backup))

	golden := filepath.Join("testdata", "series.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) || i < len(w); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Fatalf("series differ from %s at line %d:\ngot  %q\nwant %q", golden, i+1, gl, wl)
			}
		}
	}
}

// seriesOf scrapes reg through the admin handler and strips the values:
// comment lines stay whole, and each sample keeps its name and labels.
// A histogram's bucket lines fold into one line per series that lists
// its le bounds in order. Series are sorted within each family, and
// families keep their order.
func seriesOf(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	srv := httptest.NewServer(admin.Handler(reg, nil, nil, nil, nil, nil, nil))
	defer srv.Close()
	var out, family []string
	buckets := map[string]int{} // folded bucket series → index in family
	flush := func() {
		slices.Sort(family)
		out = append(out, family...)
		family = family[:0]
		clear(buckets)
	}
	for _, line := range strings.Split(strings.TrimRight(get(t, srv.URL+"/metrics", http.StatusOK), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			flush()
			out = append(out, line)
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		i := strings.Index(series, `le="`)
		if i < 0 {
			family = append(family, series)
			continue
		}
		key := strings.TrimSuffix(strings.TrimSuffix(series[:i], ","), "{")
		if strings.Contains(key, "{") {
			key += "}"
		}
		le := strings.TrimSuffix(series[i+len(`le="`):], `"}`)
		if j, ok := buckets[key]; ok {
			family[j] += "," + le
		} else {
			buckets[key] = len(family)
			family = append(family, key+" le="+le)
		}
	}
	flush()
	return strings.Join(out, "\n") + "\n"
}

// mirroredDaemon boots the mirrored, checksummed, traced store with
// both front ends, as cmd/mailboat wires them, and drives one delivery,
// one pickup that deletes it, and a healing scrub.
func mirroredDaemon(t *testing.T) *obs.Registry {
	reg := obs.NewRegistry()
	tracer := trace.New(0, 0)
	tracer.Stages = trace.NewStageMetrics(reg)
	adapter, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{
		Users:      2,
		Seed:       1,
		MirrorRoot: t.TempDir(),
		Checksum:   true,
		Metrics:    reg,
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adapter.Close)

	ss := smtp.NewServer(adapter, adapter.Users())
	ss.Metrics = smtp.NewMetrics(reg)
	ss.Tracer = tracer
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(sl)
	t.Cleanup(func() { ss.Close() })

	ps := pop3.NewServer(adapter, adapter.Users())
	ps.Metrics = pop3.NewMetrics(reg)
	ps.Tracer = tracer
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ps.Serve(pl)
	t.Cleanup(func() { ps.Close() })

	s := dialLine(t, sl.Addr().String())
	s.cmd(t, "", "220")
	s.cmd(t, "HELO golden", "250")
	s.cmd(t, "MAIL FROM:<x@y>", "250")
	s.cmd(t, "RCPT TO:<user1@z>", "250")
	s.cmd(t, "DATA", "354")
	fmt.Fprintf(s.conn, "golden mail\r\n.\r\n")
	s.cmd(t, "", "250")
	s.cmd(t, "QUIT", "221")

	p := dialLine(t, pl.Addr().String())
	p.cmd(t, "", "+OK")
	p.cmd(t, "USER user1", "+OK")
	p.cmd(t, "PASS x", "+OK maildrop has 1")
	p.cmd(t, "RETR 1", "+OK")
	for {
		line, err := p.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == ".\r\n" {
			break
		}
	}
	p.cmd(t, "DELE 1", "+OK")
	p.cmd(t, "QUIT", "+OK")
	// Each front end ends its root span before it replies, so every
	// trace_stage_seconds series is registered by now.
	if rep, ok := adapter.Scrub(true); !ok || !rep.Clean() {
		t.Fatalf("scrub: %v %v", rep, ok)
	}
	return reg
}

// replicatedPair boots a primary and its backup over loopback TCP, each
// with its own registry, and drives one replicated delivery, a pickup
// and a replicated delete through the primary.
func replicatedPair(t *testing.T) (primaryReg, backupReg *obs.Registry) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baddr := lis.Addr().String()
	lis.Close()

	backupReg = obs.NewRegistry()
	backup, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{
		Users:   2,
		Seed:    2,
		Metrics: backupReg,
		Replica: &mailboatd.ReplicaOptions{ListenAddr: baddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backup.Close)

	primaryReg = obs.NewRegistry()
	primary, err := mailboatd.NewWithOptions(t.TempDir(), mailboatd.Options{
		Users:   2,
		Seed:    1,
		Metrics: primaryReg,
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

	if err := primary.Deliver(0, []byte("replicated golden mail")); err != nil {
		t.Fatal(err)
	}
	msgs, err := primary.Pickup(0)
	primary.Unlock(0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("pickup: %v %d", err, len(msgs))
	}
	if err := primary.Delete(0, msgs[0].ID); err != nil {
		t.Fatal(err)
	}
	return primaryReg, backupReg
}
