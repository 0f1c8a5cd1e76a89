package spec

import (
	"testing"

	"repro/internal/tsl"
)

type st struct{ a, b int }

type opSwap struct{}
type opPick struct{}
type opUB struct{}

func testSpec() *TSL[st] {
	return &TSL[st]{
		SpecName: "swap",
		Initial:  st{a: 1, b: 2},
		OpTransition: func(op Op) tsl.Transition[st, Ret] {
			switch op.(type) {
			case opSwap:
				return tsl.Then(
					tsl.Modify(func(s st) st { return st{a: s.b, b: s.a} }),
					tsl.Ret[st, Ret](nil))
			case opPick:
				// Nondeterministically return a or b.
				return func(s st) tsl.Result[st, Ret] {
					return tsl.Result[st, Ret]{Outcomes: []tsl.Outcome[st, Ret]{
						{State: s, Val: s.a},
						{State: s, Val: s.b},
					}}
				}
			case opUB:
				return tsl.Undefined[st, Ret]()
			default:
				panic("bad op")
			}
		},
		CrashTransition: func(s st) []State { return []State{st{a: s.a, b: s.a}} },
		KeyOf:           nil,
	}
}

func TestNameAndInit(t *testing.T) {
	sp := testSpec()
	if sp.Name() != "swap" {
		t.Fatalf("name=%q", sp.Name())
	}
	if sp.Init().(st) != (st{a: 1, b: 2}) {
		t.Fatalf("init=%v", sp.Init())
	}
}

func TestStepFiltersByReturnValue(t *testing.T) {
	sp := testSpec()
	next, ub := sp.Step(st{a: 5, b: 9}, opPick{}, 5)
	if ub || len(next) != 1 {
		t.Fatalf("next=%v ub=%v", next, ub)
	}
	next, _ = sp.Step(st{a: 5, b: 9}, opPick{}, 9)
	if len(next) != 1 {
		t.Fatalf("next=%v", next)
	}
	next, _ = sp.Step(st{a: 5, b: 9}, opPick{}, 7)
	if len(next) != 0 {
		t.Fatalf("disallowed return accepted: %v", next)
	}
}

func TestStepWithPendingAcceptsAnyReturn(t *testing.T) {
	sp := testSpec()
	next, ub := sp.Step(st{a: 5, b: 9}, opPick{}, Pending)
	if ub || len(next) != 2 {
		t.Fatalf("pending should keep all outcomes: %v", next)
	}
}

func TestStepUB(t *testing.T) {
	sp := testSpec()
	if _, ub := sp.Step(st{}, opUB{}, nil); !ub {
		t.Fatal("UB not reported")
	}
}

func TestCrashUsesTransition(t *testing.T) {
	sp := testSpec()
	got := sp.Crash(st{a: 3, b: 8})
	if len(got) != 1 || got[0].(st) != (st{a: 3, b: 3}) {
		t.Fatalf("crash=%v", got)
	}
}

func TestCrashKeepsEveryOutcome(t *testing.T) {
	sp := testSpec()
	sp.CrashTransition = func(s st) []State { return []State{st{a: s.a, b: s.a}, st{a: s.b, b: s.b}} }
	got := sp.Crash(st{a: 3, b: 8})
	if len(got) != 2 || got[0].(st) != (st{a: 3, b: 3}) || got[1].(st) != (st{a: 8, b: 8}) {
		t.Fatalf("crash=%v", got)
	}
}

func TestCrashDefaultsToIdentity(t *testing.T) {
	sp := testSpec()
	sp.CrashTransition = nil
	got := sp.Crash(st{a: 3, b: 8})
	if len(got) != 1 || got[0].(st) != (st{a: 3, b: 8}) {
		t.Fatalf("crash=%v", got)
	}
}

func TestKeyDefaultsToFormat(t *testing.T) {
	sp := testSpec()
	if sp.Key(st{a: 1, b: 2}) != "{1 2}" {
		t.Fatalf("key=%q", sp.Key(st{a: 1, b: 2}))
	}
	sp.KeyOf = func(s st) string { return "custom" }
	if sp.Key(st{}) != "custom" {
		t.Fatal("custom key ignored")
	}
}

func TestPendingIsPrintable(t *testing.T) {
	if got := Pending.(interface{ String() string }).String(); got != "<pending>" {
		t.Fatalf("pending prints as %q", got)
	}
}
