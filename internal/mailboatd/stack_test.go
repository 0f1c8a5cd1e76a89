package mailboatd

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/mailboat"
	"repro/internal/obs"
)

// layerChain renders a stack's layers outermost first, every backend
// (gfs.OS or gfs.Model) printed as "backend".
func layerChain(sys gfs.System) string {
	switch l := sys.(type) {
	case *gfs.Mirrored:
		return "Mirrored(" + layerChain(l.Replica(0)) + " | " + layerChain(l.Replica(1)) + ")"
	case interface{ Inner() gfs.System }:
		return strings.TrimPrefix(fmt.Sprintf("%T", l), "*gfs.") + " → " + layerChain(l.Inner())
	}
	return "backend"
}

// TestDaemonRunsTheCheckedStack: for each deployment the daemon boots,
// the layer chain it serves on is the chain gfs.NewStack builds over
// model backends from the same spec — the one constructor a checked
// scenario's Setup calls — so what is checked is what runs.
func TestDaemonRunsTheCheckedStack(t *testing.T) {
	cases := []struct {
		name             string
		mirror, checksum bool
		want             string
	}{
		{"plain", false, false, "Observed → backend"},
		{"checksum", false, true, "Observed → Checksummed → backend"},
		{"mirror", true, false, "Observed → Mirrored(Faulty → backend | Faulty → backend)"},
		{"mirror+checksum", true, true,
			"Observed → Mirrored(Checksummed → Faulty → backend | Checksummed → Faulty → backend)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := Options{Users: 2, Checksum: c.checksum, Metrics: obs.NewRegistry()}
			if c.mirror {
				o.MirrorRoot = t.TempDir()
			}
			a, err := NewWithOptions(t.TempDir(), o)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			replicas, spec, err := o.stack()
			if err != nil {
				t.Fatal(err)
			}
			spec.Metrics = obs.NewRegistry()
			dirs := mailboat.Dirs(a.cfg)
			m := machine.New(machine.Options{})
			models := make([]gfs.System, replicas)
			for i := range models {
				models[i] = gfs.NewModel(m, gfs.BackendDirs(dirs, replicas))
			}
			checked := layerChain(gfs.NewStack(models, dirs, spec).Top)
			if got := layerChain(a.stack.Top); got != checked || got != c.want {
				t.Errorf("daemon serves on  %s\nchecker builds    %s\nwant              %s", got, checked, c.want)
			}
		})
	}
}

// TestReplicaRefusesQuota: a replicated node delivers only through
// mailboat.DeliverAs, which keeps no quota, so Replica + QuotaBytes used
// to boot and enforce nothing. The pair is refused before anything is
// created under the root, and Validate agrees with the constructor.
func TestReplicaRefusesQuota(t *testing.T) {
	o := Options{Users: 1, QuotaBytes: 10, Replica: &ReplicaOptions{ListenAddr: "127.0.0.1:0"}}
	root := t.TempDir()
	_, err := NewWithOptions(root, o)
	if err == nil {
		t.Fatal("Replica + QuotaBytes accepted")
	}
	for _, want := range []string{"Replica", "QuotaBytes", "DeliverAs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %s", err, want)
		}
	}
	if verr := o.Validate(); verr == nil || verr.Error() != err.Error() {
		t.Errorf("Validate says %v, NewWithOptions said %v", verr, err)
	}
	if left, _ := os.ReadDir(root); len(left) != 0 {
		t.Errorf("refused boot left %d entries under the root", len(left))
	}
	o.QuotaBytes = 0
	if err := o.Validate(); err != nil {
		t.Errorf("Replica alone refused: %v", err)
	}
}
