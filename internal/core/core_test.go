package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/tsl"
)

// runGhost runs fn as a single modeled thread with a ghost context and
// returns the era result plus the context.
func runGhost(t *testing.T, fn func(mt *machine.T, c *Ctx)) (machine.EraResult, *Ctx, *machine.Machine) {
	t.Helper()
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) { fn(mt, c) })
	return res, c, m
}

func wantViolation(t *testing.T, res machine.EraResult, substr string) {
	t.Helper()
	if res.Outcome != machine.Violation {
		t.Fatalf("expected violation containing %q, got %+v", substr, res)
	}
	if !strings.Contains(res.Err.Error(), substr) {
		t.Fatalf("violation %q does not mention %q", res.Err.Error(), substr)
	}
}

func TestNewDurableGivesUsablePair(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		ms, ls := c.NewDurable(mt, "d1[0]", uint64(0))
		if ms.Value(mt) != uint64(0) || ls.Value(mt) != uint64(0) {
			mt.Failf("wrong initial values")
		}
		c.Update(mt, ms, ls, uint64(7), nil)
		if ms.Value(mt) != uint64(7) {
			mt.Failf("update did not change logical value")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestDuplicateDurableAllocationFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.NewDurable(mt, "x", 0)
		c.NewDurable(mt, "x", 0)
	})
	wantViolation(t, res, "allocated twice")
}

func TestUpdateWithMismatchedPairFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		ma, _ := c.NewDurable(mt, "a", 0)
		_, lb := c.NewDurable(mt, "b", 0)
		c.Update(mt, ma, lb, 1, nil)
	})
	wantViolation(t, res, "master a with lease b")
}

func TestStaleLeaseAfterCrashIsCaught(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	var ms *Master
	var ls *Lease
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		ms, ls = c.NewDurable(mt, "d[0]", uint64(1))
		c.DepositMaster(mt, ms)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("setup: %+v", res)
	}
	m.CrashReset()
	res = m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		_ = ls.Value(mt) // lease died at the crash
	})
	wantViolation(t, res, "stale lease")
}

func TestMasterLostWithoutCrashInvariant(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	var ms *Master
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		ms, _ = c.NewDurable(mt, "d[0]", uint64(1))
		// NOT deposited in the crash invariant.
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		_ = ms.Value(mt)
	})
	wantViolation(t, res, "lost at a crash")
}

func TestResynthesizeAfterCrash(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	var ms *Master
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		ms, _ = c.NewDurable(mt, "d[0]", uint64(5))
		c.DepositMaster(mt, ms)
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		ms2, ls2 := ms.Resynthesize(mt)
		if ms2.Value(mt) != uint64(5) || ls2.Value(mt) != uint64(5) {
			mt.Failf("resynthesized pair lost the value")
		}
		c.Update(mt, ms2, ls2, uint64(6), nil)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestResynthesizeWithoutCrashFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		ms, _ := c.NewDurable(mt, "d[0]", uint64(5))
		ms.Resynthesize(mt)
	})
	wantViolation(t, res, "without an intervening crash")
}

func TestOldMasterHandleStaleAfterResynthesize(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	var ms *Master
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		ms, _ = c.NewDurable(mt, "d[0]", uint64(5))
		c.DepositMaster(mt, ms)
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		ms.Resynthesize(mt)
		_ = ms.Value(mt) // old handle is now stale
	})
	wantViolation(t, res, "stale master")
}

func TestUpdateWithOldVersionPairFails(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	var ms *Master
	var ls *Lease
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		ms, ls = c.NewDurable(mt, "d[0]", uint64(5))
		c.DepositMaster(mt, ms)
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.Update(mt, ms, ls, uint64(9), nil)
	})
	wantViolation(t, res, "stale lease")
}

func TestWithdrawMasterRemovesCrashProtection(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	var ms *Master
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		ms, _ = c.NewDurable(mt, "tmp", "spooldata")
		c.DepositMaster(mt, ms)
		c.WithdrawMaster(mt, ms)
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		_ = ms.Value(mt)
	})
	wantViolation(t, res, "lost at a crash")
}

func TestWithdrawOfUndepositedMasterFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		ms, _ := c.NewDurable(mt, "x", 0)
		c.WithdrawMaster(mt, ms)
	})
	wantViolation(t, res, "not in the crash invariant")
}

// ---- simulation ghost state ----

type kvState struct{ v int }
type kvPut struct{ v int }
type kvGet struct{}

func kvSpec() spec.Interface {
	return &spec.TSL[kvState]{
		SpecName: "kv",
		Initial:  kvState{},
		OpTransition: func(op spec.Op) tsl.Transition[kvState, spec.Ret] {
			switch o := op.(type) {
			case kvPut:
				return tsl.Then(
					tsl.Modify(func(kvState) kvState { return kvState{v: o.v} }),
					tsl.Ret[kvState, spec.Ret](nil))
			case kvGet:
				return tsl.Gets(func(s kvState) spec.Ret { return s.v })
			default:
				panic("bad op")
			}
		},
	}
}

func TestSimStepAdvancesSource(t *testing.T) {
	res, c, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 3})
		c.StepSim(mt, j, nil)
		c.FinishOp(mt, j, nil)
		g := c.NewJTok(kvGet{})
		c.StepSim(mt, g, 3)
		c.FinishOp(mt, g, 3)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if c.Source().(kvState).v != 3 {
		t.Fatalf("source=%+v", c.Source())
	}
}

func TestSimRejectsDisallowedReturn(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		g := c.NewJTok(kvGet{})
		c.StepSim(mt, g, 99) // spec says 0
	})
	wantViolation(t, res, "does not allow")
}

func TestFinishWithoutStepIsMissedLinearizationPoint(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 1})
		c.FinishOp(mt, j, nil)
	})
	wantViolation(t, res, "without simulating")
}

// TestNilCtxIsGhostFree: a scenario's harness mints and finishes a
// token around every operation without asking whether the run is
// annotated. A nil Ctx mints the nil token — what the annotated
// operations take for "no proof attached" — and finishing it checks
// nothing, whatever the operation returned.
func TestNilCtxIsGhostFree(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, _ *Ctx) {
		var c *Ctx
		j := c.NewJTok(kvPut{v: 1})
		if j != nil {
			mt.Failf("nil Ctx minted %+v", j)
		}
		c.FinishOp(mt, j, nil)
		c.FinishOp(mt, nil, 7)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestDoubleSimulationFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 1})
		c.StepSim(mt, j, nil)
		c.StepSim(mt, j, nil)
	})
	wantViolation(t, res, "simulated twice")
}

func TestFinishWithMismatchedReturnFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		g := c.NewJTok(kvGet{})
		c.StepSim(mt, g, 0)
		c.FinishOp(mt, g, 5)
	})
	wantViolation(t, res, "actually returned")
}

func TestCrashSimDischargesOwedCrashStep(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.InitSim(kvSpec(), kvState{v: 1})
	})
	m.CrashReset()
	if !c.CrashPending() {
		t.Fatal("crash step not owed after machine crash")
	}
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.CrashSim(mt)
	})
	if res.Outcome != machine.Done || c.CrashPending() {
		t.Fatalf("res=%+v pending=%v", res, c.CrashPending())
	}
}

// TestCrashSimRefusesAChoosingCrash: the ghost source is one state, so a
// spec whose crash has several outcomes cannot be followed by CrashSim.
func TestCrashSimRefusesAChoosingCrash(t *testing.T) {
	sp := kvSpec().(*spec.TSL[kvState])
	sp.CrashTransition = func(s kvState) []spec.State { return []spec.State{kvState{}, s} }
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.InitSim(sp, kvState{v: 1})
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.CrashSim(mt)
	})
	wantViolation(t, res, "allows 2 crash outcomes")
}

func TestCrashSimWithoutCrashFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		c.CrashSim(mt)
	})
	wantViolation(t, res, "without an owed spec crash step")
}

func TestStepSimWhileCrashOwedFails(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.InitSim(kvSpec(), kvState{})
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		j := c.NewJTok(kvPut{v: 1})
		c.StepSim(mt, j, nil)
	})
	wantViolation(t, res, "⤇Crashing")
}

func TestRecoveryHelpingCompletesCrashedOp(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	var j *JTok
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.InitSim(kvSpec(), kvState{})
		j = c.NewJTok(kvPut{v: 9})
		c.DepositHelping(mt, j)
		// thread "crashes" before simulating
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		toks := c.HelpingTokens()
		if len(toks) != 1 || toks[0] != j {
			mt.Failf("expected deposited token, got %d", len(toks))
		}
		c.Help(mt, toks[0])
		c.CrashSim(mt)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if c.Source().(kvState).v != 9 {
		t.Fatalf("helping did not apply the write: %+v", c.Source())
	}
}

// TestHelpingTokensInDepositOrder: recovery walks HelpingTokens, so two
// deposits of the same operation must come back in the order they were
// made on every run, not in the helping map's iteration order — and an
// operation deposited later comes later even when it would print first.
func TestHelpingTokensInDepositOrder(t *testing.T) {
	for run := 0; run < 100; run++ {
		var want []*JTok
		res, c, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
			c.InitSim(kvSpec(), kvState{})
			for _, v := range []int{7, 7, 7, 1} {
				j := c.NewJTok(kvPut{v: v})
				c.DepositHelping(mt, j)
				want = append(want, j)
			}
		})
		if res.Outcome != machine.Done {
			t.Fatalf("res=%+v", res)
		}
		got := c.HelpingTokens()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d tokens, want %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: token %d is deposit %d's", run, i, slices.Index(want, got[i]))
			}
		}
	}
}

func TestHelpWithoutDepositFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 9})
		c.Help(mt, j)
	})
	wantViolation(t, res, "without a deposited token")
}

func TestCrashSimDropsUnhelpedTokens(t *testing.T) {
	m := machine.New(machine.Options{})
	c := NewCtx(m)
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 9})
		c.DepositHelping(mt, j)
	})
	m.CrashReset()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		c.CrashSim(mt) // drops the token: the put never happened
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if len(c.HelpingTokens()) != 0 {
		t.Fatal("tokens not dropped at crash step")
	}
	if c.Source().(kvState).v != 0 {
		t.Fatalf("dropped op still applied: %+v", c.Source())
	}
}

func TestWithdrawHelpingOnNormalCompletion(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 2})
		c.DepositHelping(mt, j)
		c.WithdrawHelping(mt, j)
		c.StepSim(mt, j, nil)
		c.FinishOp(mt, j, nil)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestDepositHelpingAfterSimulationFails(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 2})
		c.StepSim(mt, j, nil)
		c.DepositHelping(mt, j)
	})
	wantViolation(t, res, "already-simulated")
}

func TestViolationsAreRecorded(t *testing.T) {
	res, c, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		c.CrashSim(mt)
	})
	if res.Outcome != machine.Violation {
		t.Fatalf("res=%+v", res)
	}
	if len(c.Violations()) != 1 {
		t.Fatalf("violations=%v", c.Violations())
	}
}

func TestAccessorsAndCrashInvQueries(t *testing.T) {
	res, c, _ := runGhost(t, func(mt *machine.T, cc *Ctx) {
		ms, ls := cc.NewDurable(mt, "d[0]", uint64(1))
		if ms.Name() != "d[0]" || ls.Name() != "d[0]" {
			mt.Failf("names: %q %q", ms.Name(), ls.Name())
		}
		if cc.InCrashInv("d[0]") {
			mt.Failf("not yet deposited")
		}
		cc.DepositMaster(mt, ms)
		if !cc.InCrashInv("d[0]") {
			mt.Failf("deposit not visible")
		}
		sm, sl := cc.NewDurableSet(mt, "dir", []string{"a"})
		if sm.Name() != "dir" {
			mt.Failf("set name: %q", sm.Name())
		}
		_ = sl
		cc.InitSim(kvSpec(), kvState{})
		j := cc.NewJTok(kvPut{v: 3})
		if j.Done() {
			mt.Failf("fresh token done")
		}
		if _, isPut := j.Op().(kvPut); !isPut {
			mt.Failf("op accessor: %T", j.Op())
		}
		cc.StepSim(mt, j, nil)
		if !j.Done() || j.Ret() != nil {
			mt.Failf("done=%v ret=%v", j.Done(), j.Ret())
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	_ = c
}

func TestStepSimWhereNoMatchingOutcome(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 3})
		c.StepSimWhere(mt, j, nil, func(spec.State) bool { return false })
	})
	wantViolation(t, res, "no allowed outcome")
}

func TestStepSimAmbiguousWithoutWhere(t *testing.T) {
	// A nondeterministic op stepped with plain StepSim must be flagged.
	nondet := &spec.TSL[kvState]{
		SpecName: "nondet",
		Initial:  kvState{},
		OpTransition: func(op spec.Op) tsl.Transition[kvState, spec.Ret] {
			return tsl.Bind(tsl.Choose[kvState](1, 2),
				func(v int) tsl.Transition[kvState, spec.Ret] {
					return tsl.Then(
						tsl.Modify(func(kvState) kvState { return kvState{v: v} }),
						tsl.Ret[kvState, spec.Ret](nil))
				})
		},
	}
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(nondet, kvState{})
		j := c.NewJTok(kvPut{v: 0})
		c.StepSim(mt, j, nil)
	})
	wantViolation(t, res, "use StepSimWhere")
}

func TestWithdrawHelpingNotDeposited(t *testing.T) {
	res, _, _ := runGhost(t, func(mt *machine.T, c *Ctx) {
		c.InitSim(kvSpec(), kvState{})
		j := c.NewJTok(kvPut{v: 1})
		c.WithdrawHelping(mt, j)
	})
	wantViolation(t, res, "not deposited")
}
