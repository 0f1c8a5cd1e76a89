package mailboat

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gfs"
	"repro/internal/obs"
)

// dropFirstAppend reports success for the first Append it sees and
// drops the bytes — a device that lies once. Resilver's verify-after-
// write must catch the short copy and its one retry must repair it.
type dropFirstAppend struct {
	gfs.System
	dropped bool
}

func (d *dropFirstAppend) Append(t gfs.T, fd gfs.FD, data []byte) bool {
	if !d.dropped {
		d.dropped = true
		return true
	}
	return d.System.Append(t, fd, data)
}

// readTree returns every file under root, keyed by relative path.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUnhappyBootsRepairAndReportHonestly boots a mirrored+checksummed
// store that went down unhealthy, once per kind of damage. One Recover
// must leave the replicas byte-identical and redundant, and the report
// it hands back — assembled from the resilver's single read of each
// copy, not from a scrub — must equal what a standalone detect-only
// Scrub finds immediately afterwards, with Healed equal to the heals
// the integrity metrics counted.
func TestUnhappyBootsRepairAndReportHonestly(t *testing.T) {
	cfg := Config{Users: 2, RandBound: 1 << 20}
	dirs := Dirs(cfg)
	metaDirs := append([]string{gfs.MirrorMetaDir}, dirs...)
	victim := func(t *testing.T, fs *gfs.OS, th gfs.T) string {
		names := fs.List(th, UserDir(0))
		if len(names) == 0 {
			t.Fatal("no stored message to damage")
		}
		return names[0]
	}
	rot := func(mode gfs.CorruptMode, replicas ...int) func(*testing.T, [2]*gfs.OS, gfs.T) {
		return func(t *testing.T, fs [2]*gfs.OS, th gfs.T) {
			name := victim(t, fs[0], th)
			for _, i := range replicas {
				if !fs[i].CorruptFile(th, UserDir(0), name, mode) {
					t.Fatalf("corrupting replica %d failed", i)
				}
				mode = gfs.CorruptTruncate // a second replica rots differently
			}
		}
	}
	cases := []struct {
		name        string
		blankR1     bool // replica 1 is a factory-fresh replacement
		lyingR1     bool // replica 1 drops the first append it is sent
		damage      func(*testing.T, [2]*gfs.OS, gfs.T)
		healed, bad int
	}{
		{name: "blank replacement replica", blankR1: true},
		{name: "rot on r0 only", damage: rot(gfs.CorruptFlip, 0), healed: 1},
		{name: "rot on r1 only", damage: rot(gfs.CorruptFlip, 1), healed: 1},
		{name: "rot on both", damage: rot(gfs.CorruptFlip, 0, 1), bad: 2},
		{name: "unpublished orphan on r1", damage: func(t *testing.T, fs [2]*gfs.OS, th gfs.T) {
			// Replica 1 ahead by one entry: an insert whose second leg never ran.
			c := gfs.NewChecksummed(fs[1], dirs)
			fd, ok := c.Create(th, UserDir(1), "msg-orphan")
			if !ok || !c.Append(th, fd, []byte("never published")) || !c.Sync(th, fd) {
				t.Fatal("planting the orphan failed")
			}
			c.Close(th, fd)
		}},
		{name: "destination drops bytes on first copy", blankR1: true, lyingR1: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			th := gfs.NewNative(7)
			roots := [2]string{t.TempDir(), t.TempDir()}
			var fs [2]*gfs.OS
			open := func(i int) {
				var err error
				if fs[i], err = gfs.NewOS(roots[i], metaDirs); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(fs[i].CloseAll)
			}
			var liar *dropFirstAppend
			stack := func(lying bool) (*gfs.Mirrored, *obs.Registry) {
				reg := obs.NewRegistry()
				integ := gfs.NewIntegrityMetrics(reg)
				var reps [2]gfs.System
				for i := range reps {
					below := gfs.System(fs[i])
					if i == 1 && lying {
						liar = &dropFirstAppend{System: below}
						below = liar
					}
					c := gfs.NewChecksummed(below, dirs)
					c.Metrics = integ
					reps[i] = c
				}
				m := gfs.NewMirrored(reps[0], reps[1], dirs)
				m.Integrity = integ
				return m, reg
			}

			// A healthy life: a few deliveries through the mirror.
			open(0)
			open(1)
			live, _ := stack(false)
			mb := Init(th, nil, live, cfg)
			for u, msg := range []string{"first for user0", "second for user0", "one for user1"} {
				if !mb.Deliver(th, nil, uint64(u%2), []byte(msg)) {
					t.Fatalf("deliver %q failed", msg)
				}
			}
			// Then the damage, while the server is down.
			if tc.damage != nil {
				tc.damage(t, fs, th)
			}
			if tc.blankR1 {
				roots[1] = t.TempDir()
				open(1)
			}

			boot, reg := stack(tc.lyingR1)
			mb = Recover(th, nil, boot, cfg, nil)
			rep, ok := mb.BootScrub()
			if !ok {
				t.Fatal("Recover kept no integrity report")
			}
			if liar != nil && !liar.dropped {
				t.Fatal("test is vacuous: the lying replica was never written to")
			}
			if boot.Degraded() {
				t.Fatalf("mirror still degraded after recovery: %+v", boot.Status())
			}
			if r0, r1 := readTree(t, roots[0]), readTree(t, roots[1]); !reflect.DeepEqual(r0, r1) {
				t.Fatalf("replicas differ after recovery:\nr0: %q\nr1: %q", r0, r1)
			}
			healedMetric := reg.Counter("gfs_integrity_healed_total", "").Value()
			if rep.Healed != tc.healed || uint64(rep.Healed) != healedMetric {
				t.Errorf("report says %d healed, want %d (metrics counted %d)", rep.Healed, tc.healed, healedMetric)
			}
			after := boot.Scrub(th, false)
			if rep.Checked != after.Checked || rep.Unsealed != after.Unsealed || !reflect.DeepEqual(rep.Bad, after.Bad) {
				t.Errorf("recovery reported %v bad=%q, a scrub right after finds %v bad=%q", rep, rep.Bad, after, after.Bad)
			}
			if len(rep.Bad) != tc.bad || rep.Checked == 0 {
				t.Errorf("report %v, want %d bad and a non-empty store", rep, tc.bad)
			}
			// The acked mail is all there (a both-rotten message is the one
			// honest loss, refused loudly rather than served).
			got := len(mb.Pickup(th, nil, 0)) + len(mb.Pickup(th, nil, 1))
			mb.Unlock(th, nil, 0)
			mb.Unlock(th, nil, 1)
			if want := 3 - tc.bad/2; got != want {
				t.Errorf("picked up %d messages after recovery, want %d", got, want)
			}
		})
	}
}
