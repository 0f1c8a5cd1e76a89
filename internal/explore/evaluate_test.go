package explore

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// crashCounter is a device whose durable state is the number of
// crashes it went through. With forget, its Save's restore forgets to
// put the count back, the mistake of a device whose restore misses a
// field its Crash changes.
type crashCounter struct {
	n      uint64
	forget bool
}

func (c *crashCounter) Crash() { c.n++ }

func (c *crashCounter) AppendDurable(b []byte) []byte { return machine.AppendUint64(b, c.n) }

func (c *crashCounter) Save() (restore func()) {
	n := c.n
	return func() {
		if !c.forget {
			c.n = n
		}
	}
}

// counted is a thread of three steps over a crashCounter, with one
// crash allowed.
func counted(forget bool) *Scenario {
	return &Scenario{
		Name:        "counted",
		Spec:        regSpec(true),
		MachineOpts: machine.Options{MaxSteps: 100},
		MaxCrashes:  1,
		Setup: func(m *machine.Machine) any {
			c := &crashCounter{forget: forget}
			m.RegisterDevice(c)
			return c
		},
		Main: func(t *machine.T, _ any, h *Harness) {
			for range 3 {
				t.Step("tick")
			}
		},
	}
}

// TestEvaluatedCrashIsTheCrashTaken: every crash the search runs must
// reach the boundary it evaluated in place for that crash state. A
// device whose restore forgets what its Crash changed leaves each later
// probe on a state the crash never sees, and the search reports that as
// a checker error — no verdict, neither a pass nor a conviction — and
// so does the self-check.
func TestEvaluatedCrashIsTheCrashTaken(t *testing.T) {
	rep := Run(counted(false), Options{})
	if !rep.OK() || !rep.Complete || rep.Stats.CrashStatesEvaluated == 0 {
		t.Fatalf("honest restore: %s, %s", rep, rep.Stats)
	}
	rep = Run(counted(true), Options{})
	if rep.OK() || rep.Complete || rep.Counterexample != nil || !errors.Is(rep.Err, errEvaluation) {
		t.Fatalf("forgetful restore: %s (%v), want a checker error and no verdict", rep, rep.Err)
	}
	if _, _, err := SelfCheck(counted(true), Options{}); !errors.Is(err, errEvaluation) {
		t.Errorf("the self-check passed over a checker error: %v", err)
	}
}

// TestCrashOffItsEvaluationIsAnError: the search runs only a crash
// state it evaluated in place and found live, so a crash whose boundary
// another prefix owns when it is replayed, or which has no evaluated
// state, is a checker error, never a prune. A recovery that hands every
// claimed boundary to another prefix makes the first; a scenario whose
// second thread appears from its second execution on, re-seating a
// replayed point, makes the second.
func TestCrashOffItsEvaluationIsAnError(t *testing.T) {
	stolen := counted(false)
	tab := fpTable{}
	stolen.Recover = func(t *machine.T, _ any) {
		t.RandUint64(2) // two executions replay each crash
		for fp, owner := range tab {
			tab[fp] = owner + 1
		}
	}
	var x runner
	defer x.carriers.Release()
	rep := &Report{Scenario: stolen.Name, Stats: Stats{Depth: obs.NewHistogram(obs.DepthBuckets)}}
	se := &search{x: &x, s: stolen, rep: rep, budget: 100}
	se.d.dd = &dedupRun{table: tab}
	se.dfs()
	if rep.OK() || rep.Counterexample != nil || !errors.Is(rep.Err, errEvaluation) || !strings.Contains(rep.Err.Error(), "another prefix owns") {
		t.Errorf("stolen boundary: %s (%v), want a checker error and no verdict", rep, rep.Err)
	}

	reseated := counted(false)
	runs := 0
	reseated.Setup = func(m *machine.Machine) any {
		runs++
		m.RegisterDevice(&crashCounter{})
		return nil
	}
	reseated.Main = func(t *machine.T, _ any, h *Harness) {
		if runs > 1 {
			t.Go(func(c *machine.T) { c.Step("late") })
		}
		for range 3 {
			t.Step("tick")
		}
	}
	rep = Run(reseated, Options{})
	if rep.OK() || rep.Counterexample != nil || !errors.Is(rep.Err, errEvaluation) || !strings.Contains(rep.Err.Error(), "no state evaluated") || rep.Stats.Reseats == 0 {
		t.Errorf("re-seated point: %s (%v, %d reseats), want a checker error and no verdict", rep, rep.Err, rep.Stats.Reseats)
	}
}

// settle is a device with a tree of crash-time choices: the crash keeps
// the durable value (a=0) or settles one of three pending writes (a=1,
// then b), and the first and third settle alike, so two states of every
// crash point reach one boundary.
type settle struct {
	m       *machine.Machine
	durable uint64
	pending [2]uint64
}

func (d *settle) Crash() {
	if d.m.CrashChoose(2, "a") == 1 {
		d.durable = d.pending[d.m.CrashChoose(3, "b")%2]
	}
	d.pending = [2]uint64{}
}

func (d *settle) AppendDurable(b []byte) []byte { return machine.AppendUint64(b, d.durable) }

func (d *settle) Save() (restore func()) {
	durable, pending := d.durable, d.pending
	return func() { d.durable, d.pending = durable, pending }
}

// settling is two threads that each write their slot of a settle
// device in two steps, with recovery that takes a step; crashes may
// strike recovery too.
func settling() *Scenario {
	return &Scenario{
		Name:        "settling",
		Spec:        regSpec(true),
		MachineOpts: machine.Options{MaxSteps: 100},
		MaxCrashes:  2,
		Setup: func(m *machine.Machine) any {
			d := &settle{m: m}
			m.RegisterDevice(d)
			return d
		},
		Main: func(t *machine.T, wAny any, h *Harness) {
			d := wAny.(*settle)
			for i := range d.pending {
				t.Go(func(c *machine.T) {
					c.Step("w1")
					d.pending[i] = uint64(i + 1)
					c.Step("w2")
					d.pending[i] += 10
				})
			}
		},
		Recover: func(t *machine.T, _ any) { t.Step("recover") },
	}
}

// TestEvaluatedCrashStatesCoverTheSpace: crash states skipped in place,
// at crash points of the main era and of recovery, change neither the
// verdict nor the outcome set.
func TestEvaluatedCrashStatesCoverTheSpace(t *testing.T) {
	with, without, err := SelfCheck(settling(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Complete || !without.Complete || with.Stats.PrunedStates == 0 {
		t.Fatalf("reduced %s (%s), plain %s", with, with.Stats, without)
	}
	t.Logf("%d executions without the reductions, %d with (%s)", without.Executions, with.Executions, with.Stats)
}
