package explore

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/tsl"
)

// exampleSpec is a sequential spec for a durable write-once cell: set(v)
// installs v, get() returns it, and a crash loses nothing.
func exampleSpec() spec.Interface {
	return &spec.TSL[int]{
		SpecName: "cell",
		Initial:  0,
		OpTransition: func(op spec.Op) tsl.Transition[int, spec.Ret] {
			switch o := op.(type) {
			case opSet:
				return tsl.Then(
					tsl.Modify(func(int) int { return o.v }),
					tsl.Ret[int, spec.Ret](nil))
			case opGet:
				return tsl.Gets(func(s int) spec.Ret { return s })
			default:
				panic("bad op")
			}
		},
	}
}

// exampleScenario is a cell stored as two halves, a world that Setup
// registers as the device a crash keeps, so a crash between the two
// writes tears it. withRecovery decides whether recovery rolls
// a torn write back — without it, the implementation does not refine
// the spec and the checker must find a counterexample.
func exampleScenario(withRecovery bool) *Scenario {
	s := &Scenario{
		Name:        "cell",
		Spec:        exampleSpec(),
		MachineOpts: machine.Options{MaxSteps: 100},
		MaxCrashes:  1,
		Setup:       newWorld,
		Main: func(t *machine.T, wAny any, h *Harness) {
			w := wAny.(*world)
			t.Go(func(c *machine.T) {
				h.Op(opSet{v: 7}, func() spec.Ret {
					c.Step("write-hi")
					w.hi = 7
					c.Step("write-lo")
					w.lo = 7
					return nil
				})
			})
		},
		Post: func(t *machine.T, wAny any, h *Harness) {
			w := wAny.(*world)
			t.Go(func(c *machine.T) {
				h.Op(opGet{}, func() spec.Ret {
					c.Step("read")
					if w.lo != w.hi {
						return -1 // torn
					}
					return w.hi
				})
			})
		},
	}
	if withRecovery {
		s.Recover = func(t *machine.T, wAny any) {
			w := wAny.(*world)
			if w.hi != w.lo {
				w.hi, w.lo = 0, 0 // roll the torn write back
			}
		}
	}
	return s
}

// ExampleRun explores a crash-safe torn-write cell: every interleaving
// and crash point is covered, and recovery rolls torn writes back, so
// the search completes with no counterexample. The cell is the device
// Setup registers, so crash points that leave it and the history alike
// are run once: the plain search (Options.NoReduce) takes 6 executions.
func ExampleRun() {
	rep := Run(exampleScenario(true), Options{})
	fmt.Println(rep.String())
	// Output:
	// cell: OK (4 executions, 3 crashed, complete, 20 checker states)
}

// ExampleReplayCx checks a buggy variant (no recovery, so a crash can
// leave the cell torn), minimizes the counterexample's choice sequence,
// and replays it deterministically to recover the full trace.
func ExampleReplayCx() {
	s := exampleScenario(false)
	rep := Run(s, Options{})
	fmt.Println(rep.OK())

	min := Minimize(s, rep.Counterexample.Choices)
	cx := ReplayCx(s, min)
	fmt.Println(cx.Reason)
	fmt.Printf("choices: %v\n", cx.Choices)
	// Output:
	// false
	// refinement failure: no linearization found: search stuck before event 3 (return 1: get() -> -1) in history:
	//   0  invoke 0: set(7)
	//   1  crash
	//   2  invoke 1: get()
	//   3  return 1: get() -> -1
	//
	// choices: [0 0 0 0 1 0 0 0 0]
}
