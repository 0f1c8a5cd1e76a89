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
// search runs exactly one, with no execution stopped where every thread
// left sleeps. On one shared cell no two stores commute: the reduced
// search runs one execution per order of the 2k stores, C(2k, k),
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
		if red.Executions != want || red.Stats.SleepBlocked != 0 {
			t.Errorf("shared=%v: %d executions, %d blocked; want %d and none blocked",
				shared, red.Executions, red.Stats.SleepBlocked, want)
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
// so the reduced search runs one order, three executions with none
// blocked, and finds the same three outcomes the plain search finds in
// both.
func TestSleepSetsFaultBudgetCommutes(t *testing.T) {
	red, plain, err := SelfCheck(budgeted(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !red.Complete || !plain.Complete || red.Stats.SleepBlocked != 0 {
		t.Fatalf("reduced %s, plain %s: want both complete and none blocked", red, plain)
	}
	if red.Executions != 3 || plain.Executions <= red.Executions {
		t.Errorf("reduced search ran %d executions, plain %d; want 3 and more", red.Executions, plain.Executions)
	}
}

// TestSelfCheckBoundedPlainSearch: at a budget the reduced search
// completes within and the plain one does not — one execution short of
// the plain search's — SelfCheck passes when every outcome the plain
// search reached is among the reduced search's, and still reports one
// that is not.
func TestSelfCheckBoundedPlainSearch(t *testing.T) {
	for _, s := range []*Scenario{cells(4, false), undeclared(false, false)} {
		budget := Run(s, Options{NoReduce: true}).Executions - 1
		with, without, err := SelfCheck(s, Options{MaxExecutions: budget})
		if !with.Complete || without.Complete {
			t.Fatalf("%s at %d: reduced %s, plain %s; want only the reduced search complete", s.Name, budget, with, without)
		}
		if lost := s.Name == "undeclared"; lost != (err != nil && strings.Contains(err.Error(), "outcomes")) {
			t.Errorf("%s at %d: %v", s.Name, budget, err)
		}
	}
}

// TestWakeupTreesNegativeControl: the rule's mutation that never
// inserts one race's reversal — the first the search finds and its
// trees do not cover yet — is convicted by SelfCheck on undeclared,
// where the two threads' declared transitions conflict and so race: the
// one order the mutated search runs hides the violation of the other,
// and, without the violation, its outcome.
func TestWakeupTreesNegativeControl(t *testing.T) {
	defer func() { dropReversal = nil }()
	for _, violate := range []bool{true, false} {
		dropped := 0
		dropReversal = func() bool { dropped++; return dropped == 1 }
		_, _, err := SelfCheck(undeclared(true, violate), Options{})
		want := "outcomes"
		if violate {
			want = "verdict"
		}
		if dropped == 0 || err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("violate=%v: %d reversals offered, SelfCheck: %v; want a %s change", violate, dropped, err, want)
		}
	}
	dropReversal = nil
	for _, violate := range []bool{true, false} {
		if _, _, err := SelfCheck(undeclared(true, violate), Options{}); err != nil {
			t.Errorf("SelfCheck without the mutation, violate=%v: %v", violate, err)
		}
	}
}

// twoModes is two threads sharing a Go variable: A, spawned first,
// writes it and reads it back in one transition, B reads it, and each
// folds its mark into a durable register, so the two orders leave
// different final states.
func twoModes() *Scenario {
	v := machine.StaticObj()
	return &Scenario{
		Name:        "two-modes",
		Spec:        regSpec(true),
		MachineOpts: machine.Options{MaxSteps: 500},
		Setup: func(m *machine.Machine) any {
			d := &durableReg{}
			m.RegisterDevice(d)
			return d
		},
		Main: func(t *machine.T, wAny any, h *Harness) {
			d := wAny.(*durableReg)
			mark := func(c *machine.T, x uint64, modes ...machine.Mode) {
				c.StepDeclared("mark")
				for _, md := range modes {
					c.Machine().Touch(v, md)
				}
				d.v = d.v*4 + x
			}
			t.Go(func(c *machine.T) { mark(c, 1, machine.Write, machine.Read) })
			t.Go(func(c *machine.T) { mark(c, 2, machine.Read) })
		},
	}
}

// TestRaceAcrossTwoModesOfOneObject: a transition that touches one
// object in two modes indexes both accesses, so a later read finds the
// write under the read and the search runs both orders.
func TestRaceAcrossTwoModesOfOneObject(t *testing.T) {
	red, _, err := SelfCheck(twoModes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if red.Executions != 2 || red.Stats.SleepBlocked != 0 {
		t.Errorf("reduced search: %s (%s); want 2 executions, none blocked", red, red.Stats)
	}
}
