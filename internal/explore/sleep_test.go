package explore

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// cells builds a scenario of two threads that each store k times into a
// cell: their own cell, or with shared one cell for both.
func cells(k int, shared bool) *Scenario {
	return &Scenario{
		Name:        "cells",
		Spec:        regSpec(true),
		MachineOpts: machine.Options{MaxSteps: 500},
		Setup:       func(m *machine.Machine) any { return nil },
		Main: func(t *machine.T, _ any, h *Harness) {
			a := machine.NewRef(t, "a", 0)
			b := a
			if !shared {
				b = machine.NewRef(t, "b", 0)
			}
			for _, r := range []*machine.Ref[int]{a, b} {
				t.Go(func(c *machine.T) {
					for i := 0; i < k; i++ {
						r.StoreAtomic(c, i)
					}
				})
			}
		},
	}
}

// TestSleepSetsCollapseDisjointThreads: two threads of k stores on
// disjoint cells have one execution up to reordering, and the reduced
// search checks exactly one, stopping the others where every thread
// left sleeps. On one shared cell no two stores commute: the reduced
// search checks one execution per order of the 2k stores, C(2k, k),
// where the plain search also runs every place the threads' spawns and
// starts, which commute with everything, can take among them.
func TestSleepSetsCollapseDisjointThreads(t *testing.T) {
	const k, orders = 4, 70 // 8 choose 4
	for _, shared := range []bool{false, true} {
		plain := Run(cells(k, shared), Options{NoReduce: true})
		red := Run(cells(k, shared), Options{})
		for _, r := range []*Report{plain, red} {
			if !r.OK() || !r.Complete {
				t.Fatalf("shared=%v: %s", shared, r)
			}
		}
		want := 1
		if shared {
			want = orders
		}
		if checked := red.Executions - red.Stats.SleepBlocked; checked != want || red.Stats.SleepBlocked == 0 {
			t.Errorf("shared=%v: %d executions checked, %d blocked; want %d checked and some blocked",
				shared, checked, red.Stats.SleepBlocked, want)
		}
		if plain.Executions <= red.Executions || plain.Stats.Slept != 0 || plain.Stats.SleepBlocked != 0 {
			t.Errorf("shared=%v: plain search %s, reduced %s", shared, plain.Stats, red.Stats)
		}
		t.Logf("shared=%v: plain %d executions; reduced %d (%s)", shared, plain.Executions, red.Executions, red.Stats)
	}
}

// durableReg is a device whose durable state is one integer, so that
// an outcome (SelfCheck) includes it.
type durableReg struct{ v uint64 }

func (*durableReg) Crash() {}

func (*durableReg) Save() (restore func()) { return func() {} }

func (d *durableReg) AppendDurable(b []byte) []byte { return machine.AppendUint64(b, d.v) }

// undeclared is the sleep sets' negative control: thread A stores into
// its cell and then, in the same transition, reads a Go variable that
// thread B writes in the same transition as its own store, so the two
// transitions look independent unless declare says what they share.
// With violate, A fails when it runs after B, the order the search
// explores second; without, each thread folds its mark into a durable
// register, so the two orders leave different final states.
func undeclared(declare, violate bool) *Scenario {
	flag := machine.StaticObj()
	return &Scenario{
		Name:        "undeclared",
		Spec:        regSpec(true),
		MachineOpts: machine.Options{MaxSteps: 500},
		Setup: func(m *machine.Machine) any {
			d := &durableReg{}
			m.RegisterDevice(d)
			return d
		},
		Main: func(t *machine.T, wAny any, h *Harness) {
			d := wAny.(*durableReg)
			a, b := machine.NewRef(t, "a", 0), machine.NewRef(t, "b", 0)
			mark := func(c *machine.T, r *machine.Ref[int], v uint64) {
				r.StoreAtomic(c, 1)
				if declare {
					c.Machine().Touch(flag, machine.Write)
				}
				if violate && v == 1 && d.v != 0 {
					c.Failf("A ran after B")
				}
				d.v = d.v*4 + v
			}
			t.Go(func(c *machine.T) { mark(c, a, 1) })
			t.Go(func(c *machine.T) { mark(c, b, 2) })
		},
	}
}

// TestSleepSetsNegativeControl: state the threads share but do not
// declare is state the reduction may reorder wrongly. The reduced search
// misses the violation the plain search finds, SelfCheck reports the
// changed verdict and, on the violation-free variant, the outcome the
// reduced search never reaches; declaring the variable restores both.
func TestSleepSetsNegativeControl(t *testing.T) {
	if rep := Run(undeclared(false, true), Options{NoReduce: true}); rep.OK() {
		t.Fatalf("plain search missed the violation: %s", rep)
	}
	if rep := Run(undeclared(false, true), Options{}); !rep.OK() {
		t.Fatalf("reduced search convicted without the declaration: the control controls nothing")
	}
	if _, _, err := SelfCheck(undeclared(false, true), Options{}); err == nil || !strings.Contains(err.Error(), "verdict") {
		t.Errorf("SelfCheck on the undeclared violation: %v, want a verdict change", err)
	}
	if _, _, err := SelfCheck(undeclared(false, false), Options{}); err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Errorf("SelfCheck on the undeclared reordering: %v, want an outcome change", err)
	}
	if rep := Run(undeclared(true, true), Options{}); rep.OK() {
		t.Errorf("reduced search missed the declared violation: %s", rep)
	}
	for _, violate := range []bool{false, true} {
		if _, _, err := SelfCheck(undeclared(true, violate), Options{}); err != nil {
			t.Errorf("SelfCheck with the declaration, violate=%v: %v", violate, err)
		}
	}
}

// slots is a device whose durable state is one integer per thread.
type slots struct{ v [2]uint64 }

func (*slots) Crash() {}

func (*slots) Save() (restore func()) { return func() {} }

func (d *slots) AppendDurable(b []byte) []byte {
	return machine.AppendUint64(machine.AppendUint64(b, d.v[0]), d.v[1])
}

// budgeted is two threads that each take one step, offer one injection
// from a fault budget of one they share, and record in their own durable
// slot whether they got it.
func budgeted() *Scenario {
	return &Scenario{
		Name:        "budget",
		Spec:        regSpec(true),
		MachineOpts: machine.Options{MaxSteps: 500},
		Setup: func(m *machine.Machine) any {
			d := &slots{}
			m.RegisterDevice(d)
			return d
		},
		Main: func(t *machine.T, wAny any, h *Harness) {
			d := wAny.(*slots)
			p := &fault.Chooser{Budget: 1, Eligible: fault.Classes(fault.Create)}
			for i := range d.v {
				t.Go(func(c *machine.T) {
					c.StepDeclared("op")
					d.v[i] = 1
					if p.Decide(c, fault.Create, 0) {
						d.v[i] = 2
					}
				})
			}
		},
	}
}

// TestSleepSetsFaultBudgetCommutes: a fault.Chooser's budget declares
// nothing, so two threads whose only shared state is the budget commute.
// Running either one first reaches every outcome — the first injects or
// declines, and the second gets the offer only when the first declined —
// so the reduced search checks one order and finds the same three
// outcomes the plain search finds in both.
func TestSleepSetsFaultBudgetCommutes(t *testing.T) {
	red, plain, err := SelfCheck(budgeted(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !red.Complete || !plain.Complete || red.Stats.SleepBlocked == 0 {
		t.Fatalf("reduced %s, plain %s: want both complete and the reduced one blocked", red, plain)
	}
	if checked := red.Executions - red.Stats.SleepBlocked; checked != 3 || plain.Executions <= checked {
		t.Errorf("reduced search checked %d executions, plain %d; want 3 and more", checked, plain.Executions)
	}
}

// TestSelfCheckBoundedPlainSearch: at a budget the reduced search
// completes within and the plain one does not, SelfCheck passes when
// every outcome the plain search reached is among the reduced search's,
// and still reports one that is not.
func TestSelfCheckBoundedPlainSearch(t *testing.T) {
	for _, s := range []*Scenario{cells(4, false), undeclared(false, false)} {
		budget := Run(s, Options{}).Executions
		with, without, err := SelfCheck(s, Options{MaxExecutions: budget})
		if !with.Complete || without.Complete {
			t.Fatalf("%s at %d: reduced %s, plain %s; want only the reduced search complete", s.Name, budget, with, without)
		}
		if lost := s.Name == "undeclared"; lost != (err != nil && strings.Contains(err.Error(), "outcomes")) {
			t.Errorf("%s at %d: %v", s.Name, budget, err)
		}
	}
}
