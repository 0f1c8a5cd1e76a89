package explore

import (
	"errors"
	"testing"

	"repro/internal/machine"
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
		Fingerprint: func(_ any, b []byte) []byte { return b },
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
		Recover:     func(t *machine.T, _ any) { t.Step("recover") },
		Fingerprint: func(_ any, b []byte) []byte { return b },
	}
}

// TestEvaluatedCrashStatesCoverTheSpace: crash states skipped in place,
// at crash points of the main era and of recovery, change neither the
// verdict nor the outcome set, and no pruned crash state costs an
// execution.
func TestEvaluatedCrashStatesCoverTheSpace(t *testing.T) {
	with, without, err := SelfCheck(settling(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Complete || !without.Complete || with.Stats.CrashStatesSkipped == 0 {
		t.Fatalf("reduced %s (%s), plain %s", with, with.Stats, without)
	}
	if with.Stats.PrunedStates != with.Stats.CrashStatesSkipped {
		t.Errorf("%d pruned, %d of them skipped: a pruned crash state took an execution", with.Stats.PrunedStates, with.Stats.CrashStatesSkipped)
	}
	t.Logf("%d executions without the reductions, %d with (%s)", without.Executions, with.Executions, with.Stats)
}
