package machine

import (
	"runtime"
	"strings"
	"testing"
)

// goroutinesSettle waits for the goroutine count to come down to want:
// an ended coroutine's goroutine may take a moment to be gone.
func goroutinesSettle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCarrierReusedAfterKillStartsClean: a thread killed while it holds
// a lock unwinds through its deferred Release on its carrier, which then
// runs the next machine's thread as if new — not dead, TID 0, and with a
// step counter the unwind did not touch.
func TestCarrierReusedAfterKillStartsClean(t *testing.T) {
	before := runtime.NumGoroutine()
	var cs Carriers

	m := NewOn(&cs, Options{})
	var l *Lock
	unwound := 0
	calls := 0
	res := m.RunEra(ChooserFunc(func(n int, tag string) int {
		if calls++; calls > 8 {
			return n - 1 // crash
		}
		return calls % (n - 1)
	}), true, func(mt *T) {
		l = NewLock(mt, "l")
		mt.Go(func(c *T) {
			l.Acquire(c)
			defer func() {
				defer func() { unwound++ }()
				l.Release(c) // re-panics the kill: never returns
				t.Error("Release returned in a killed thread")
			}()
			for {
				c.Step("hold")
			}
		})
		for {
			mt.Step("spin")
		}
	})
	if res.Outcome != Crashed || unwound != 1 {
		t.Fatalf("res=%+v, holder unwound %d times", res, unwound)
	}
	if l.Holder() != 1 {
		t.Fatalf("lock holder is %d after the kill, want the killed thread 1", l.Holder())
	}
	if len(cs.idle) != 2 {
		t.Fatalf("%d idle carriers after the kill, want both threads' 2", len(cs.idle))
	}
	stepsAtKill := m.Steps()

	// The next machine of the same owner: its threads take the two
	// carriers the killed threads handed back.
	m2 := NewOn(&cs, Options{})
	var ids []TID
	ran := 0
	res = m2.RunEra(SeqChooser{}, false, func(mt *T) {
		ids = append(ids, mt.ID())
		mt.Go(func(c *T) {
			ids = append(ids, c.ID())
			c.Step("a") // a dead thread would panic here and never count
			c.Step("b")
			ran++
		})
		mt.Step("main")
		ran++
	})
	if res.Outcome != Done || ran != 2 {
		t.Fatalf("second machine: res=%+v, %d of 2 threads ran to the end", res, ran)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("thread IDs on reused carriers: %v, want [0 1]", ids)
	}
	if m2.Steps() != 4 { // go, main, a, b
		t.Fatalf("second machine took %d steps, want 4", m2.Steps())
	}
	if m.Steps() != stepsAtKill {
		t.Fatalf("first machine's steps moved from %d to %d", stepsAtKill, m.Steps())
	}
	if len(cs.idle) != 2 {
		t.Fatalf("%d idle carriers, want 2: the second machine should have started none", len(cs.idle))
	}

	cs.Release()
	if len(cs.idle) != 0 {
		t.Fatalf("%d idle carriers after Release", len(cs.idle))
	}
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutines: %d before, %d after Release", before, after)
	}
}

// TestCarrierSurvivesThreadPanic: a panic that is not the kill sentinel
// is the thread's violation, not the carrier's end.
func TestCarrierSurvivesThreadPanic(t *testing.T) {
	var cs Carriers
	defer cs.Release()

	res := NewOn(&cs, Options{}).RunEra(SeqChooser{}, false, func(mt *T) {
		mt.Step("x")
		panic("boom")
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "thread 0 panicked: boom") {
		t.Fatalf("res=%+v", res)
	}
	if len(cs.idle) != 1 {
		t.Fatalf("%d idle carriers after the panic, want 1", len(cs.idle))
	}
	ran := false
	res = NewOn(&cs, Options{}).RunEra(SeqChooser{}, false, func(mt *T) {
		mt.Step("y")
		ran = true
	})
	if res.Outcome != Done || !ran || len(cs.idle) != 1 {
		t.Fatalf("after the panic: res=%+v ran=%v idle=%d", res, ran, len(cs.idle))
	}
}

// TestNeverScheduledThreadTakesNoCarrier: a thread is bound to a carrier
// at its first resume, so one that is spawned and killed before it is
// ever scheduled never runs and never had one.
func TestNeverScheduledThreadTakesNoCarrier(t *testing.T) {
	var cs Carriers
	defer cs.Release()

	started := false
	calls := 0
	res := NewOn(&cs, Options{}).RunEra(ChooserFunc(func(n int, tag string) int {
		if calls++; calls > 3 {
			return n - 1 // crash
		}
		return 0 // always thread 0
	}), true, func(mt *T) {
		mt.Go(func(c *T) { started = true })
		for {
			mt.Step("spin")
		}
	})
	if res.Outcome != Crashed {
		t.Fatalf("res=%+v", res)
	}
	if started {
		t.Fatal("the never-scheduled thread ran")
	}
	if len(cs.idle) != 1 {
		t.Fatalf("%d carriers exist, want only thread 0's", len(cs.idle))
	}
}

// TestGoexitDiscardsTheCarrier: a body that leaves by runtime.Goexit (a
// t.Fatal inside a simulated thread) takes its carrier's coroutine with
// it. The Goexit reaches RunEra's caller as it always has — under the
// race detector, whose stand-in for iter.Pull cannot forward it, the
// thread reads as exited — and either way the ended carrier is not
// handed to the next thread.
func TestGoexitDiscardsTheCarrier(t *testing.T) {
	before := runtime.NumGoroutine()
	var cs Carriers
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewOn(&cs, Options{}).RunEra(SeqChooser{}, false, func(mt *T) {
			mt.Step("x")
			runtime.Goexit()
		})
		returned = true
	}()
	<-done
	if returned != raceBuild {
		t.Fatalf("RunEra returned=%v after a Goexit in a thread, want %v", returned, raceBuild)
	}
	if len(cs.idle) != 0 {
		t.Fatalf("%d idle carriers: the ended one was pooled", len(cs.idle))
	}
	ran := false
	res := NewOn(&cs, Options{}).RunEra(SeqChooser{}, false, func(mt *T) {
		mt.Step("y")
		ran = true
	})
	if res.Outcome != Done || !ran {
		t.Fatalf("after the Goexit: res=%+v ran=%v", res, ran)
	}
	cs.Release()
	if after := goroutinesSettle(before); after > before {
		t.Fatalf("goroutines: %d before, %d after Release", before, after)
	}
}

// TestBareMachineIsEraScoped: New's private set keeps nothing between
// eras — every thread's goroutine is gone when RunEra returns, with no
// Release to call.
func TestBareMachineIsEraScoped(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(Options{})
	for era := 0; era < 3; era++ {
		res := m.RunEra(SeqChooser{}, false, func(mt *T) {
			for i := 0; i < 4; i++ {
				mt.Go(func(c *T) { c.Step("x") })
			}
		})
		if res.Outcome != Done {
			t.Fatalf("era %d: %+v", era, res)
		}
		if len(m.carriers.idle) != 0 {
			t.Fatalf("era %d: a bare machine kept %d idle carriers", era, len(m.carriers.idle))
		}
		if after := goroutinesSettle(before); after > before {
			t.Fatalf("era %d: goroutines: %d before, %d after", era, before, after)
		}
	}
}

// TestWarmSpawnAllocs pins what a thread costs on a warm set: its own
// record, and nothing for the coroutine under it (a fresh iter.Pull
// coroutine per thread was 16 allocations).
func TestWarmSpawnAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's allocations are not the program's")
	}
	var cs Carriers
	defer cs.Release()
	m := NewOn(&cs, Options{MaxSteps: 1 << 30})
	var avg float64
	ran := 0
	lastRunnable := ChooserFunc(func(n int, tag string) int { return n - 1 })
	res := m.RunEra(lastRunnable, false, func(mt *T) {
		body := func(c *T) { c.Step("x"); ran++ }
		spawn := func() {
			mt.Go(body)     // spawn: one step of this thread;
			mt.Step("wait") // the child runs before this returns: bind,
			// step, exit, and its carrier is back in the set.
		}
		spawn() // warm the set
		avg = testing.AllocsPerRun(200, spawn)
	})
	if res.Outcome != Done {
		t.Fatal(res.Err)
	}
	if ran != 202 { // the warming call, AllocsPerRun's own, its 200
		t.Fatalf("%d spawned threads ran to the end, want 202", ran)
	}
	if avg > 3 {
		t.Fatalf("spawn + run + exit on a warm set: %.1f allocations, want at most 3", avg)
	}
	t.Logf("spawn + run + exit on a warm set: %.1f allocations", avg)
}
