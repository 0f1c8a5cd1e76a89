package machine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func run(t *testing.T, main func(t *T)) EraResult {
	t.Helper()
	m := New(Options{})
	return m.RunEra(SeqChooser{}, false, main)
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	ran := false
	res := run(t, func(mt *T) {
		mt.Step("nop")
		ran = true
	})
	if res.Outcome != Done || !ran {
		t.Fatalf("res=%+v ran=%v", res, ran)
	}
}

func TestRefLoadStoreRoundTrip(t *testing.T) {
	var got int
	res := run(t, func(mt *T) {
		r := NewRef(mt, "x", 10)
		r.Store(mt, 42)
		got = r.Load(mt)
	})
	if res.Outcome != Done || got != 42 {
		t.Fatalf("res=%+v got=%d", res, got)
	}
}

func TestGoSpawnsChildAndEraWaitsForIt(t *testing.T) {
	childRan := false
	res := run(t, func(mt *T) {
		mt.Go(func(c *T) {
			c.Step("child")
			childRan = true
		})
	})
	if res.Outcome != Done || !childRan {
		t.Fatalf("res=%+v childRan=%v", res, childRan)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// Two threads increment a shared counter under a lock; with the
	// random chooser over many seeds the result must always be 2.
	for seed := int64(0); seed < 50; seed++ {
		m := New(Options{})
		final := 0
		res := m.RunEra(NewRandChooser(seed), false, func(mt *T) {
			l := NewLock(mt, "l")
			r := NewRef(mt, "ctr", 0)
			done := NewRef(mt, "done", 0)
			worker := func(c *T) {
				l.Acquire(c)
				v := r.Load(c)
				r.Store(c, v+1)
				l.Release(c)
				d := done.Load(c)
				done.StoreAtomic(c, d+1)
			}
			mt.Go(worker)
			mt.Go(worker)
		})
		if res.Outcome != Done {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		_ = final
	}
}

func TestUnlockedCounterRaceIsDetected(t *testing.T) {
	// Two threads store the same cell without a lock. Some schedule must
	// interleave the two-step stores and flag a race.
	found := false
	for seed := int64(0); seed < 200 && !found; seed++ {
		m := New(Options{})
		res := m.RunEra(NewRandChooser(seed), false, func(mt *T) {
			r := NewRef(mt, "x", 0)
			mt.Go(func(c *T) { r.Store(c, 1) })
			mt.Go(func(c *T) { r.Store(c, 2) })
		})
		if res.Outcome == Violation && strings.Contains(res.Err.Error(), "data race") {
			found = true
		}
	}
	if !found {
		t.Fatal("no seed exposed the data race on an unlocked store")
	}
}

func TestLoadDuringStoreIsARace(t *testing.T) {
	found := false
	for seed := int64(0); seed < 200 && !found; seed++ {
		m := New(Options{})
		res := m.RunEra(NewRandChooser(seed), false, func(mt *T) {
			r := NewRef(mt, "x", 0)
			mt.Go(func(c *T) { r.Store(c, 1) })
			mt.Go(func(c *T) { _ = r.Load(c) })
		})
		if res.Outcome == Violation && strings.Contains(res.Err.Error(), "data race") {
			found = true
		}
	}
	if !found {
		t.Fatal("no seed exposed the load-during-store race")
	}
}

func TestCrashInjectionKillsThreads(t *testing.T) {
	m := New(Options{})
	// Chooser: first few schedules, then crash (last option).
	calls := 0
	ch := ChooserFunc(func(n int, tag string) int {
		if tag != "sched" {
			return 0
		}
		calls++
		if calls > 3 {
			return n - 1 // crash option
		}
		return 0
	})
	reached := false
	res := m.RunEra(ch, true, func(mt *T) {
		for i := 0; i < 100; i++ {
			mt.Step("spin")
		}
		reached = true
	})
	if res.Outcome != Crashed {
		t.Fatalf("res=%+v", res)
	}
	if reached {
		t.Fatal("thread ran to completion despite crash")
	}
}

func TestCrashResetBumpsVersionAndStalePointerIsCaught(t *testing.T) {
	m := New(Options{})
	var r *Ref[int]
	res := m.RunEra(SeqChooser{}, false, func(mt *T) {
		r = NewRef(mt, "x", 7)
	})
	if res.Outcome != Done {
		t.Fatalf("first era: %+v", res)
	}
	if m.Version() != 1 {
		t.Fatalf("version=%d", m.Version())
	}
	m.CrashReset()
	if m.Version() != 2 {
		t.Fatalf("version after crash=%d", m.Version())
	}
	res = m.RunEra(SeqChooser{}, false, func(mt *T) {
		_ = r.Load(mt) // stale: allocated at version 1
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "version") {
		t.Fatalf("stale pointer not caught: %+v", res)
	}
}

func TestStaleLockIsCaught(t *testing.T) {
	m := New(Options{})
	var l *Lock
	m.RunEra(SeqChooser{}, false, func(mt *T) { l = NewLock(mt, "l") })
	m.CrashReset()
	res := m.RunEra(SeqChooser{}, false, func(mt *T) { l.Acquire(mt) })
	if res.Outcome != Violation {
		t.Fatalf("stale lock not caught: %+v", res)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Two threads acquire two locks in opposite orders; some schedule
	// deadlocks.
	found := false
	for seed := int64(0); seed < 300 && !found; seed++ {
		m := New(Options{})
		res := m.RunEra(NewRandChooser(seed), false, func(mt *T) {
			a := NewLock(mt, "a")
			b := NewLock(mt, "b")
			mt.Go(func(c *T) {
				a.Acquire(c)
				b.Acquire(c)
				b.Release(c)
				a.Release(c)
			})
			mt.Go(func(c *T) {
				b.Acquire(c)
				a.Acquire(c)
				a.Release(c)
				b.Release(c)
			})
		})
		if res.Outcome == Violation && strings.Contains(res.Err.Error(), "deadlock") {
			found = true
		}
	}
	if !found {
		t.Fatal("no seed exposed the lock-order deadlock")
	}
}

func TestSelfDeadlockOnReacquire(t *testing.T) {
	res := run(t, func(mt *T) {
		l := NewLock(mt, "l")
		l.Acquire(mt)
		l.Acquire(mt)
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "re-acquired") {
		t.Fatalf("res=%+v", res)
	}
}

func TestReleaseWithoutHoldIsViolation(t *testing.T) {
	res := run(t, func(mt *T) {
		l := NewLock(mt, "l")
		l.Release(mt)
	})
	if res.Outcome != Violation {
		t.Fatalf("res=%+v", res)
	}
}

func TestStepBudgetCatchesInfiniteLoop(t *testing.T) {
	m := New(Options{MaxSteps: 500})
	res := m.RunEra(SeqChooser{}, false, func(mt *T) {
		for {
			mt.Step("spin") // the §9.5 Pickup infinite-loop bug class
		}
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "infinite loop") {
		t.Fatalf("res=%+v", res)
	}
}

func TestThreadPanicIsReportedAsViolation(t *testing.T) {
	res := run(t, func(mt *T) {
		mt.Step("pre")
		panic("boom")
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "boom") {
		t.Fatalf("res=%+v", res)
	}
}

func TestRandUint64IsChooserDriven(t *testing.T) {
	m := New(Options{})
	ch := ChooserFunc(func(n int, tag string) int {
		if tag == "rand" {
			return 3
		}
		return 0
	})
	var got uint64
	res := m.RunEra(ch, false, func(mt *T) { got = mt.RandUint64(10) })
	if res.Outcome != Done || got != 3 {
		t.Fatalf("res=%+v got=%d", res, got)
	}
}

func TestDeviceCrashCalledOnReset(t *testing.T) {
	m := New(Options{})
	d := &countingDevice{}
	m.RegisterDevice(d)
	m.CrashReset()
	m.CrashReset()
	if d.crashes != 2 {
		t.Fatalf("device crashes=%d", d.crashes)
	}
}

type countingDevice struct{ crashes int }

func (d *countingDevice) Crash() { d.crashes++ }

func TestTraceRecordsEvents(t *testing.T) {
	m := New(Options{TraceDepth: TraceAll})
	m.RunEra(SeqChooser{}, false, func(mt *T) {
		r := NewRef(mt, "cell", 0)
		r.Store(mt, 1)
	})
	joined := strings.Join(m.Trace(), "\n")
	if !strings.Contains(joined, "alloc cell") || !strings.Contains(joined, "store cell") {
		t.Fatalf("trace missing events:\n%s", joined)
	}
}

func TestTraceDepthBoundsTrace(t *testing.T) {
	m := New(Options{TraceDepth: 5})
	m.RunEra(SeqChooser{}, false, func(mt *T) {
		for i := 0; i < 50; i++ {
			mt.Tracef("line %d", i)
			mt.Step("nop")
			// The ring holds the newest lines, oldest first, at every
			// fill level and wrap position.
			var want []string
			for j := max(0, i-4); j <= i; j++ {
				want = append(want, fmt.Sprintf("t0: line %d", j))
			}
			if got := m.Trace(); !slices.Equal(got, want) {
				mt.Failf("after line %d: trace %q, want %q", i, got, want)
			}
		}
	})
	if err := m.Failure(); err != nil {
		t.Fatal(err)
	}
	if got := m.Trace(); len(got) != 5 || got[0] != "t0: line 45" || got[4] != "t0: line 49" {
		t.Fatalf("final trace %q", got)
	}
	m.ResetTrace()
	m.Tracef("after reset")
	if got := m.Trace(); !slices.Equal(got, []string{"after reset"}) {
		t.Fatalf("trace after reset %q", got)
	}
}

// TestNoTraceAttachedFormatsNothing: without a TraceDepth the machine
// keeps no trace, and a step neither formats nor allocates — the state
// the model checker searches in.
func TestNoTraceAttachedFormatsNothing(t *testing.T) {
	m := New(Options{MaxSteps: 1 << 30})
	if m.Tracing() {
		t.Fatal("a machine with no TraceDepth reports a trace attached")
	}
	var stepAllocs, primAllocs float64
	res := m.RunEra(SeqChooser{}, false, func(mt *T) {
		l := NewLock(mt, "l")
		r := NewRef(mt, "x", 0)
		stepAllocs = testing.AllocsPerRun(1000, func() { mt.Step("bench") })
		primAllocs = testing.AllocsPerRun(1000, func() {
			l.Acquire(mt)
			r.Store(mt, r.Load(mt))
			l.Release(mt)
			mt.Tracef("never formatted")
		})
	})
	if res.Outcome != Done {
		t.Fatalf("res=%+v", res)
	}
	if stepAllocs != 0 || primAllocs != 0 {
		t.Fatalf("allocations per T.Step = %v, per acquire+load+store+release = %v; want 0", stepAllocs, primAllocs)
	}
	if len(m.Trace()) != 0 {
		t.Fatalf("trace kept without a TraceDepth: %q", m.Trace())
	}
}

// TestKilledThreadTakesNoFurtherStep: a thread killed by a crash while
// it holds a lock unwinds through its deferred Release, which must not
// run as a machine step: the step counter stays put, the lock keeps its
// holder, and the thread's goroutine is gone when RunEra returns.
func TestKilledThreadTakesNoFurtherStep(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(Options{})
	var l *Lock
	unwound, stepsAtKill := 0, 0
	holder := func(c *T) {
		l.Acquire(c)
		defer func() {
			stepsAtKill = m.Steps()
			defer func() { unwound++ }()
			l.Release(c) // re-panics the kill: never returns
			t.Error("Release returned in a killed thread")
		}()
		for {
			c.Step("hold")
		}
	}
	calls := 0
	ch := ChooserFunc(func(n int, tag string) int {
		if calls++; calls > 12 {
			return n - 1 // crash
		}
		return calls % (n - 1)
	})
	res := m.RunEra(ch, true, func(mt *T) {
		l = NewLock(mt, "l")
		mt.Go(holder)
		mt.Go(func(c *T) { // a waiter, blocked on the lock when killed
			l.Acquire(c)
			defer l.Release(c)
		})
		mt.Go(func(c *T) {}) // possibly never scheduled
	})
	if res.Outcome != Crashed {
		t.Fatalf("res=%+v", res)
	}
	if unwound != 1 {
		t.Fatalf("holder's deferred calls ran %d times, want 1", unwound)
	}
	if m.Steps() != stepsAtKill {
		t.Fatalf("steps advanced from %d to %d while killed threads unwound", stepsAtKill, m.Steps())
	}
	if l.Holder() != 1 {
		t.Fatalf("lock holder is %d after the kill, want the killed thread 1", l.Holder())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the era, %d after", before, after)
	}
}

func TestManyThreadsAllComplete(t *testing.T) {
	m := New(Options{})
	count := 0
	res := m.RunEra(NewRandChooser(1), false, func(mt *T) {
		r := NewRef(mt, "ctr", 0)
		l := NewLock(mt, "l")
		for i := 0; i < 8; i++ {
			mt.Go(func(c *T) {
				l.Acquire(c)
				r.Store(c, r.Load(c)+1)
				l.Release(c)
			})
		}
		_ = r
		count = 8
	})
	if res.Outcome != Done || count != 8 {
		t.Fatalf("res=%+v", res)
	}
}
