package postal

import (
	"math/rand"
	"sort"
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
	b, cleanup, err := NewBackend("mailboat", t.TempDir(), 10, 4, 42)
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
	b, cleanup, err := NewBackend("gomail", t.TempDir(), 10, 4, 42)
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
	b, cleanup, err := NewBackend("cmail", t.TempDir(), 10, 2, 42)
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
	if _, _, err := NewBackend("exchange", t.TempDir(), 1, 1, 1); err == nil {
		t.Fatal("unknown backend accepted")
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
			b, cleanup, err := NewFastBackend(server, RAMDir(), 25, 1, 7)
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

func TestRunNetBackendCleanWorkload(t *testing.T) {
	// The full network path: SMTP deliveries and POP3 pickups over
	// loopback TCP, hash-verified end to end.
	b, cleanup, err := NewBackend("mailboat-net", t.TempDir(), 6, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res := Run(b, Options{Workers: 3, Users: 6, TotalRequests: 300, Seed: 42})
	if res.BadHashes != 0 || res.Errors != 0 {
		t.Fatalf("result: %s", res)
	}
	if res.Requests != 300 {
		t.Fatalf("requests=%d", res.Requests)
	}
}

func TestNetworkOverheadIsMeasurable(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison is slow")
	}
	// §9.3 excluded the network path; measuring it here shows why: the
	// direct (library-call) backend is faster than the TCP path.
	tps := map[string]float64{}
	for _, server := range []string{"mailboat", "mailboat-net"} {
		b, cleanup, err := NewBackend(server, RAMDir(), 10, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(b, Options{Workers: 1, Users: 10, TotalRequests: 2000, Seed: 5})
		cleanup()
		if res.BadHashes != 0 || res.Errors != 0 {
			t.Fatalf("%s: %s", server, res)
		}
		tps[server] = res.Throughput
		t.Logf("%s: %s", server, res)
	}
	if tps["mailboat"] <= tps["mailboat-net"] {
		t.Errorf("expected the direct path to beat the network path: %.0f vs %.0f",
			tps["mailboat"], tps["mailboat-net"])
	}
}
