package mailboatd

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gfs"
	"repro/internal/obs"
)

// TestBootRecordsOneIntegrityBaseline: an envelope store's boot sweeps
// the store once, and that sweep is the LastScrub baseline — populated
// before the first request on the mirrored and the single-backend
// stack alike, counting every stored copy, observed as exactly one
// gfs_integrity_scrub_seconds sample (a second, separate baseline scrub
// would be a second sample). A file rotten on both replicas at boot
// shows in that baseline, which is what turns /healthz to 503.
func TestBootRecordsOneIntegrityBaseline(t *testing.T) {
	const users, perUser = 16, 4
	for _, mirrored := range []bool{true, false} {
		t.Run(fmt.Sprintf("mirrored=%v", mirrored), func(t *testing.T) {
			root := t.TempDir()
			o := Options{Users: users, Seed: 3, Checksum: true}
			copies := 1
			if mirrored {
				o.MirrorRoot, copies = t.TempDir(), 2
			}
			boot := func() (*Adapter, *obs.Registry, time.Duration) {
				o.Metrics = obs.NewRegistry()
				start := time.Now()
				a, err := NewWithOptions(root, o)
				if err != nil {
					t.Fatal(err)
				}
				return a, o.Metrics, time.Since(start)
			}
			samples := func(reg *obs.Registry) uint64 {
				return reg.Histogram("gfs_integrity_scrub_seconds", "", obs.DefLatencyBuckets).Count()
			}

			a, _, _ := boot()
			for u := uint64(0); u < users; u++ {
				for k := 0; k < perUser; k++ {
					if err := a.Deliver(u, []byte(fmt.Sprintf("message %d for user %d", k, u))); err != nil {
						t.Fatal(err)
					}
				}
			}
			a.Close()

			a, reg, wall := boot()
			rep, _, ran := a.LastScrub()
			if !ran || !rep.Clean() || rep.Checked != copies*users*perUser || rep.Corrupt != 0 {
				t.Fatalf("boot baseline: ran=%v %v, want %d clean copies", ran, rep, copies*users*perUser)
			}
			if n := samples(reg); n != 1 {
				t.Fatalf("boot observed %d scrub-seconds samples, want exactly 1", n)
			}
			t.Logf("reopen wall time (mirrored=%v, %d messages): %v, baseline %v", mirrored, users*perUser, wall, rep)

			// Rot one message on every replica, then reboot.
			path := a.CorruptReplica(0)
			if path == "" || (mirrored && a.CorruptReplica(1) != path) {
				t.Fatalf("could not rot %q on every replica", path)
			}
			a.Close()
			a, reg, _ = boot()
			defer a.Close()
			rep, _, ran = a.LastScrub()
			if !ran || rep.Clean() || rep.Bad[0] != path || len(rep.Bad) != copies {
				t.Fatalf("boot baseline over a rotten message: ran=%v %v bad=%q", ran, rep, rep.Bad)
			}
			if n := samples(reg); n != 1 {
				t.Fatalf("boot observed %d scrub-seconds samples, want exactly 1", n)
			}
		})
	}
}

// TestMetricsDaemonSeesFaultLatches: with Metrics on, gfs.Observed is
// the outermost layer, above the drill's gfs.Faulty. The library's
// fast-abort checks must still find the latch: a delivery that fills
// the disk mid-flight (after admission, so the shedder cannot refuse
// it up front) gives up after the attempt that hit the wall instead of
// burning DeliverRetries × 128 creates against a store that cannot
// take one, and is reported as the storage refusal it is.
func TestMetricsDaemonSeesFaultLatches(t *testing.T) {
	reg := obs.NewRegistry()
	fault := &FaultOptions{Seed: 1}
	fault.Rates[gfs.FaultNoSpace] = 1 // the first space-consuming write fills the disk
	a, err := NewWithOptions(t.TempDir(), Options{
		Users: 1, Seed: 1, Metrics: reg, Fault: fault, DeliverRetries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Deliver(0, []byte("the disk fills under this one")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Deliver = %v, want ErrNoSpace", err)
	}
	if n := a.cfg.Metrics.DeliverAttempts.Value(); n != 1 {
		t.Errorf("delivery against a full store made %d attempts of 8; the fast abort allows one", n)
	}
	if n := reg.Counter("gfs_ops_total", "", "op", "create").Value(); n != 1 {
		t.Errorf("delivery against a full store issued %d creates, want the one that hit the wall", n)
	}
}
