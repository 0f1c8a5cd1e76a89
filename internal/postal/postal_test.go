package postal

import (
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestComposeVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		msg := Compose(rng, 100+i*13)
		if !Verify(string(msg)) {
			t.Fatalf("fresh message fails verification: %q", msg[:40])
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	msg := []byte(Compose(rng, 200))
	msg[len(msg)-1] ^= 0xff
	if Verify(string(msg)) {
		t.Fatal("corrupt body passed verification")
	}
}

func TestVerifyCatchesTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	msg := Compose(rng, 200)
	if Verify(string(msg[:len(msg)/2])) {
		t.Fatal("truncated message passed verification")
	}
	if Verify("") || Verify("no header") {
		t.Fatal("headerless message passed verification")
	}
}

func TestRunMailboatBackendCleanWorkload(t *testing.T) {
	b, cleanup, err := newBackend("mailboat", t.TempDir(), 10, 4, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res := Run(b, Options{Workers: 4, Users: 10, TotalRequests: 400, Seed: 42})
	if res.BadHashes != 0 || res.Errors != 0 {
		t.Fatalf("result: %s", res)
	}
	if res.Requests != 400 {
		t.Fatalf("requests=%d", res.Requests)
	}
	if res.Delivers == 0 || res.Pickups == 0 {
		t.Fatalf("unbalanced mix: %s", res)
	}
}

func TestRunGoMailBackendCleanWorkload(t *testing.T) {
	b, cleanup, err := newBackend("gomail", t.TempDir(), 10, 4, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res := Run(b, Options{Workers: 4, Users: 10, TotalRequests: 400, Seed: 42})
	if res.BadHashes != 0 || res.Errors != 0 {
		t.Fatalf("result: %s", res)
	}
}

func TestRunCMailBackendCleanWorkload(t *testing.T) {
	b, cleanup, err := newBackend("cmail", t.TempDir(), 10, 2, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res := Run(b, Options{Workers: 2, Users: 10, TotalRequests: 200, Seed: 42})
	if res.BadHashes != 0 || res.Errors != 0 {
		t.Fatalf("result: %s", res)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	if _, _, err := newBackend("exchange", t.TempDir(), 1, 1, 1, false); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestSweepRefusesUnknownServer: a sweep naming a server it cannot
// build fails before measuring anything, and says which servers exist.
func TestSweepRefusesUnknownServer(t *testing.T) {
	base := t.TempDir()
	_, err := Sweep(SweepOptions{Servers: []string{"mailboat", "mailboat-net"}, Cores: []int{1}, BaseDir: base})
	if err == nil {
		t.Fatal("sweep accepted an unknown server")
	}
	for _, want := range []string{`"mailboat-net"`, "mailboat, gomail, cmail"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if entries, _ := os.ReadDir(base); len(entries) != 0 {
		t.Errorf("refused sweep built %d stores under BaseDir", len(entries))
	}
}

// TestPostalImportsNoServingPackage: postal is a workload generator
// beneath the daemon. The protocol path is measured by the benchmark's
// own client and the per-stage breakdown by its traced runs, so postal
// imports no front end, no daemon and no tracer.
func TestPostalImportsNoServingPackage(t *testing.T) {
	banned := []string{"mailboatd", "smtp", "pop3", "netsrv", "trace"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if slices.Contains(banned, strings.TrimPrefix(path, "repro/internal/")) {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}

func TestSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	points, err := Sweep(SweepOptions{
		Servers:          []string{"mailboat", "gomail"},
		Cores:            []int{1, 2},
		Users:            10,
		RequestsPerPoint: 600,
		BaseDir:          t.TempDir(),
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points=%d", len(points))
	}
	table := FormatSweep(points)
	if !strings.Contains(table, "mailboat") || !strings.Contains(table, "cores") {
		t.Fatalf("table:\n%s", table)
	}
	t.Logf("\n%s", table)
}

func TestFig11ShapeSingleCore(t *testing.T) {
	// The paper's single-core ordering: Mailboat > GoMail > CMAIL
	// (§9.3: +81% and +34%). Absolute factors vary by machine; we
	// assert only the ordering, with a small tolerance margin.
	if testing.Short() {
		t.Skip("throughput comparison is slow")
	}
	// One ~100 ms sample per server is at the mercy of whatever else the
	// host runs during it. Take several rounds with the servers
	// interleaved within each (rotating who goes first), so that the
	// three samples of a round see the same host, and compare the
	// medians of the per-round throughput ratios.
	const rounds = 9
	servers := []string{"mailboat", "gomail", "cmail"}
	var overGoMail, overCMail []float64
	for round := 0; round < rounds; round++ {
		tps := map[string]float64{}
		for i := range servers {
			server := servers[(i+round)%len(servers)]
			// The paper's measurement method ran Mailboat without durability
			// barriers, so the parity comparison uses the fast mode (the
			// baselines ignore the knob either way).
			b, cleanup, err := newBackend(server, RAMDir(), 25, 1, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			res := Run(b, Options{Workers: 1, Users: 25, TotalRequests: 4000, Seed: 7})
			cleanup()
			if res.BadHashes != 0 || res.Errors != 0 {
				t.Fatalf("%s: %s", server, res)
			}
			tps[server] = res.Throughput
			if round == 0 {
				t.Logf("%s: %s", server, res)
			}
		}
		overGoMail = append(overGoMail, tps["mailboat"]/tps["gomail"])
		overCMail = append(overCMail, tps["gomail"]/tps["cmail"])
	}
	median := func(s []float64) float64 {
		sort.Float64s(s)
		return s[len(s)/2]
	}
	if r := median(overGoMail); r < 1.05 {
		t.Errorf("expected Mailboat > GoMail: median ratio %.3f over %d rounds %.3f", r, rounds, overGoMail)
	}
	if r := median(overCMail); r < 1.05 {
		t.Errorf("expected GoMail > CMAIL: median ratio %.3f over %d rounds %.3f", r, rounds, overCMail)
	}
	t.Logf("Mailboat/GoMail %.3f, GoMail/CMAIL %.3f (medians of %d interleaved rounds)", overGoMail[rounds/2], overCMail[rounds/2], rounds)
}
