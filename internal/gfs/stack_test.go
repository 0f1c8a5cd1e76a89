package gfs

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/loc"
	"repro/internal/machine"
	"repro/internal/obs"
)

// chain renders a stack's layers outermost first, with every backend
// (Model or OS) printed as "backend".
func chain(sys System) string {
	switch l := sys.(type) {
	case *Mirrored:
		return "Mirrored(" + chain(l.Replica(0)) + " | " + chain(l.Replica(1)) + ")"
	case innerer:
		return strings.TrimPrefix(fmt.Sprintf("%T", l), "*gfs.") + " → " + chain(l.Inner())
	}
	return "backend"
}

// stackAxes is one point of the stack's option space.
type stackAxes struct {
	mirror, checksum, metrics, deferred bool
	policy                              string
}

var stackPolicies = map[string]func() fault.Policy{
	"none":  func() fault.Policy { return nil },
	"never": func() fault.Policy { return fault.Never{} },
	"failstop": func() fault.Policy {
		return &fault.Chooser{Budget: 1, Eligible: map[fault.Class]bool{fault.FailStop: true}}
	},
	"corrupt": func() fault.Policy {
		return &fault.Chooser{Budget: 1, Eligible: map[fault.Class]bool{fault.Corrupt: true}}
	},
	"nospace": func() fault.Policy {
		return &fault.Chooser{Budget: 1, Eligible: map[fault.Class]bool{fault.NoSpace: true}}
	},
	"transient": func() fault.Policy { return &fault.Chooser{Budget: 1} },
	"seeded":    func() fault.Policy { return &SeededPolicy{Seed: 1, Rates: UniformRates(4)} },
}

// refusedPair is the table as the test knows it, stated over pairs of
// axes and independently of Validate: a point of the space is illegal
// exactly when it contains one of these pairs, and the message must
// name both layers.
func (a stackAxes) refusedPair() (layerA, layerB string, refused bool) {
	unmasked := a.policy == "nospace" || a.policy == "transient" || a.policy == "seeded"
	switch {
	case a.mirror && unmasked:
		return "Mirrored", "Faulty", true
	case a.mirror && a.deferred:
		return "Mirrored", "deferred-durability Model", true
	case a.checksum && a.deferred:
		return "Checksummed", "deferred-durability Model", true
	}
	return "", "", false
}

// wantChain is the layer order every caller of NewStack gets.
func (a stackAxes) wantChain() string {
	r := "backend"
	if a.policy != "none" {
		r = "Faulty → " + r
	}
	if a.checksum {
		r = "Checksummed → " + r
	}
	if a.mirror {
		r = "Mirrored(" + r + " | " + r + ")"
	}
	if a.metrics {
		r = "Observed → " + r
	}
	return r
}

// TestStackSpecTable walks the whole option space — replicas ×
// checksum × policy kind × metrics × backend durability, so every pair
// of axes meets — and requires each point to be either built, with
// exactly the expected layer chain over Model backends and (strict
// durability only) over gfs.OS in a temp dir, or refused by Validate
// with the table's message, which NewStack panics with.
func TestStackSpecTable(t *testing.T) {
	dirs := []string{"spool", "user0"}
	bools := []bool{false, true}
	built, refused := 0, 0
	for policy := range stackPolicies {
		for _, mirror := range bools {
			for _, checksum := range bools {
				for _, metrics := range bools {
					for _, deferred := range bools {
						a := stackAxes{mirror, checksum, metrics, deferred, policy}
						if stackPoint(t, a, dirs) {
							built++
						} else {
							refused++
						}
					}
				}
			}
		}
	}
	t.Logf("%d points built, %d refused", built, refused)
	if built == 0 || refused == 0 {
		t.Fatal("the table is vacuous")
	}
}

func stackPoint(t *testing.T, a stackAxes, dirs []string) (built bool) {
	t.Helper()
	replicas := 1
	if a.mirror {
		replicas = 2
	}
	spec := func() StackSpec {
		s := StackSpec{Checksum: a.checksum, Policy: stackPolicies[a.policy]()}
		if a.metrics {
			s.Metrics = obs.NewRegistry()
		}
		return s
	}
	models := func() []System {
		m := machine.New(machine.Options{})
		out := make([]System, replicas)
		for i := range out {
			if a.deferred {
				out[i] = NewWritebackModel(m, BackendDirs(dirs, replicas))
			} else {
				out[i] = NewModel(m, BackendDirs(dirs, replicas))
			}
		}
		return out
	}
	err := spec().Validate(replicas, a.deferred)
	la, lb, refuse := a.refusedPair()
	if refuse {
		if err == nil {
			t.Errorf("%+v: accepted, want refused", a)
			return false
		}
		msg := err.Error()
		for _, want := range []string{la, lb, "mutually exclusive: "} {
			if !strings.Contains(msg, want) {
				t.Errorf("%+v: message %q does not contain %q", a, msg, want)
			}
		}
		func() {
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != msg {
					t.Errorf("%+v: NewStack panicked with %v, want %q", a, r, msg)
				}
			}()
			NewStack(models(), dirs, spec())
		}()
		return false
	}
	if err != nil {
		t.Errorf("%+v: refused (%v), want built", a, err)
		return false
	}
	st := NewStack(models(), dirs, spec())
	if got := chain(st.Top); got != a.wantChain() {
		t.Errorf("%+v over models:\n got %s\nwant %s", a, got, a.wantChain())
	}
	if (st.Mirror() != nil) != a.mirror || (st.Checksummed(0) != nil) != a.checksum ||
		(st.Faulty(0) != nil) != (a.policy != "none") || (st.Faulty(1) != nil) != (a.mirror && a.policy != "none") {
		t.Errorf("%+v: accessors disagree with the spec", a)
	}
	if !a.deferred {
		oses := make([]System, replicas)
		for i := range oses {
			fs, err := NewOS(filepath.Join(t.TempDir(), "r"), BackendDirs(dirs, replicas))
			if err != nil {
				t.Fatal(err)
			}
			defer fs.CloseAll()
			oses[i] = fs
		}
		if got := chain(NewStack(oses, dirs, spec()).Top); got != a.wantChain() {
			t.Errorf("%+v over gfs.OS:\n got %s\nwant %s", a, got, a.wantChain())
		}
	}
	return true
}

// TestStackRulesMatchDesignDoc pins DESIGN.md's legality table to
// Validate: every distinct refusal over the option space is one row,
// carrying both layers and the reason verbatim, and the table has no
// row Validate does not produce.
func TestStackRulesMatchDesignDoc(t *testing.T) {
	_, rows := loc.DocTable(t, "DESIGN.md", "stack-rules")
	refusals := map[string]bool{}
	bools := []bool{false, true}
	for _, mk := range stackPolicies {
		for _, mirror := range bools {
			for _, checksum := range bools {
				for _, deferred := range bools {
					replicas := 1
					if mirror {
						replicas = 2
					}
					if err := (StackSpec{Checksum: checksum, Policy: mk()}).Validate(replicas, deferred); err != nil {
						refusals[err.Error()] = true
					}
				}
			}
		}
	}
	if len(rows) != len(refusals) {
		t.Errorf("DESIGN.md lists %d rules, Validate refuses for %d distinct reasons", len(rows), len(refusals))
	}
	for msg := range refusals {
		layers, why, _ := strings.Cut(strings.TrimPrefix(msg, "gfs: "), " are mutually exclusive: ")
		a, b, _ := strings.Cut(layers, " and ")
		if !slices.ContainsFunc(rows, func(r []string) bool { return slices.Equal(r, []string{a, b, why}) }) {
			t.Errorf("DESIGN.md is missing the row: %s | %s | %s", a, b, why)
		}
	}
}
