package machine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// drawLog records, in order, every Choose call a machine makes as
// "tag/n", and every observer event: "tN" for Scheduled(N), "crash" for
// CrashInjected.
type drawLog struct {
	inner Chooser
	log   []string
}

func (d *drawLog) Choose(n int, tag string) int {
	d.log = append(d.log, fmt.Sprintf("%s/%d", tag, n))
	return d.inner.Choose(n, tag)
}

func (d *drawLog) Scheduled(tid TID) { d.log = append(d.log, fmt.Sprintf("t%d", tid)) }
func (d *drawLog) CrashInjected()    { d.log = append(d.log, "crash") }

// drawsOnce checks a drawLog: each "sched" draw is followed by exactly
// one observer event, before any other draw, and each event follows a
// "sched" draw.
func drawsOnce(log []string) error {
	pending := false
	for i, ev := range log {
		draw := strings.Contains(ev, "/")
		switch {
		case pending && draw:
			return fmt.Errorf("entry %d: %s drawn before the last sched draw was acted on", i, ev)
		case pending:
			pending = false
		case draw:
			pending = strings.HasPrefix(ev, "sched/")
		default:
			return fmt.Errorf("entry %d: %s follows no sched draw", i, ev)
		}
	}
	if pending {
		return fmt.Errorf("the last sched draw was never acted on")
	}
	return nil
}

// drawProgram has three threads: main holds a lock while it spawns a
// waiter, which blocks on it unless main lets go first, and a worker,
// which draws a random number. It counts the eras the waiter blocked in.
func drawProgram(blocked *int) func(mt *T) {
	return func(mt *T) {
		l := NewLock(mt, "l")
		r := NewRef(mt, "x", 0)
		l.Acquire(mt)
		mt.Go(func(c *T) {
			l.Acquire(c)
			r.Store(c, r.Load(c)+1)
			l.Release(c)
		})
		mt.Go(func(c *T) {
			c.Step("work")
			c.RandUint64(3)
			c.Step("work")
		})
		mt.Step("hold")
		r.Store(mt, 1)
		if len(l.waiters) > 0 {
			*blocked++
		}
		l.Release(mt)
		mt.Step("done")
	}
}

// stepDraws is what drawProgram's eras draw and report under
// RandChooser{CrashWeight: 30} at seeds 1 to 8, as the scheduler made
// every draw before a step could keep its thread.
var stepDraws = []string{
	"sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t1 sched/3 t1 sched/2 t0 sched/3 t2 sched/3 t0 sched/3 t0 sched/3 t0 sched/3 t2 sched/3 t0 sched/4 crash",
	"sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t1 sched/3 t0 sched/4 t2 sched/4 t0 sched/4 t1 sched/3 t0 sched/3 t0 sched/3 t2 sched/3 t2 rand/3 sched/3 t2 sched/2 t0 sched/3 t1 sched/3 t1 sched/3 t1 sched/3 t1 sched/3 t0 sched/2 t1",
	"sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t0 sched/4 t1 sched/4 t2 sched/4 t2 sched/4 t1 sched/3 t2 rand/3 sched/3 t2 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t0 sched/2 t1 sched/2 t1 sched/2 t1 sched/2 t1 sched/2 t1",
	"sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t0 sched/4 t2 sched/4 crash",
	"sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t0 sched/4 t1 sched/4 t0 sched/4 t0 sched/4 t1 sched/3 t2 sched/3 t0 sched/3 t0 sched/4 t2 sched/4 t1 sched/4 t0 sched/3 t1 sched/3 t1 sched/3 t2 rand/3 sched/3 t1 sched/3 t1 sched/2 t2",
	"sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t1 sched/3 t1 sched/2 t0 sched/3 t2 sched/3 t2 sched/3 t2 rand/3 sched/3 t0 sched/3 t0 sched/3 t2 sched/2 t0 sched/2 t0 sched/3 t1 sched/3 t1 sched/3 t0 sched/2 t1 sched/2 t1 sched/2 t1",
	"sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t1 sched/3 t0 sched/4 t2 sched/4 t0 sched/4 t2 sched/4 t0 sched/4 t2 rand/3 sched/4 t1 sched/3 t2 sched/2 t0 sched/2 t0 sched/3 t1 sched/3 t0 sched/2 t1 sched/2 t1 sched/2 t1 sched/2 t1",
	"sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/2 t0 sched/3 t0 sched/4 t0 sched/4 t0 sched/4 t0 sched/4 t0 sched/4 t0 sched/3 t2 sched/3 t1 sched/3 t2 sched/3 t1 sched/3 t1 sched/3 t2 rand/3 sched/3 t1 sched/3 t2 sched/2 t1 sched/2 t1",
}

// TestStepDrawsEachChoiceOnce: a step that keeps its thread draws the
// scheduler's choice itself, and one that does not hands it to RunEra;
// either way the chooser sees the draws, and the observer the events, of
// a scheduler that drew every choice itself.
func TestStepDrawsEachChoiceOnce(t *testing.T) {
	blocked, crashed := 0, 0
	for seed := int64(1); seed <= int64(len(stepDraws)); seed++ {
		rc := NewRandChooser(seed)
		rc.CrashWeight, rc.CrashOption = 30, true
		d := &drawLog{inner: rc}
		m := New(Options{Observer: d})
		res := m.RunEra(d, true, drawProgram(&blocked))
		if res.Outcome == Violation {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		if res.Outcome == Crashed {
			crashed++
		}
		if err := drawsOnce(d.log); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, strings.Join(d.log, " "))
		}
		if got := strings.Join(d.log, " "); got != stepDraws[seed-1] {
			t.Errorf("seed %d: draws moved\n got: %s\nwant: %s", seed, got, stepDraws[seed-1])
		}
	}

	if blocked == 0 || crashed == 0 || crashed == len(stepDraws) {
		t.Fatalf("of %d eras, %d crashed and %d had a blocked waiter: the table misses a case", len(stepDraws), crashed, blocked)
	}

	// Negative control: a scheduler that drew again after a handoff — a
	// sched draw that moved the step to another thread — is caught.
	log, last := strings.Fields(stepDraws[0]), ""
	for i, ev := range log {
		if ev[0] != 't' {
			continue
		}
		if last != "" && ev != last && strings.HasPrefix(log[i-1], "sched/") {
			if redrawn := slices.Insert(slices.Clone(log), i, log[i-1]); drawsOnce(redrawn) == nil {
				t.Fatalf("a second draw after a handoff passes:\n%s", strings.Join(redrawn, " "))
			}
			return
		}
		last = ev
	}
	t.Fatal("seed 1's era hands no step to another thread")
}

// TestDeviceFailfEndsEraAtNextStep: a violation a device records with
// Machine.Failf, without aborting its thread, ends the era at that
// thread's next step boundary: the step draws nothing, and neither it
// nor any other thread runs on — whether the draw would have kept the
// thread (SeqChooser) or handed the step to the other one (alternate).
func TestDeviceFailfEndsEraAtNextStep(t *testing.T) {
	for _, name := range []string{"keep", "handoff"} {
		failed, ranOn, drawn := false, 0, 0
		var ch Chooser = SeqChooser{}
		alt := &alternate{}
		if name == "handoff" {
			ch = alt
		}
		counting := ChooserFunc(func(n int, tag string) int {
			if failed {
				drawn++
			}
			return ch.Choose(n, tag)
		})
		m := New(Options{Observer: alt})
		res := m.RunEra(counting, false, func(mt *T) {
			mt.Go(func(c *T) {
				for {
					c.Step("spin")
					if failed {
						ranOn++
					}
				}
			})
			mt.Step("write")
			mt.Machine().Failf("device: torn write")
			failed = true
			mt.Step("next")
			ranOn++
		})
		if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "torn write") {
			t.Fatalf("%s: res=%+v", name, res)
		}
		if ranOn != 0 || drawn != 0 {
			t.Fatalf("%s: after the failure, threads ran on past %d steps and %d choices were drawn", name, ranOn, drawn)
		}
	}
}

// TestStepInPlaceAllocs: a step that keeps its thread allocates nothing
// — the draw uses the machine's runnable buffer — and reports itself to
// the observer.
func TestStepInPlaceAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's allocations are not the program's")
	}
	obs := &alternate{}
	m := New(Options{MaxSteps: 1 << 30, Observer: obs})
	var avg float64
	res := m.RunEra(SeqChooser{}, true, func(mt *T) {
		mt.Go(func(c *T) { c.Step("x") }) // a second runnable thread to draw over
		obs.n = 0
		avg = testing.AllocsPerRun(100, func() { mt.Step("x") })
		if obs.n != 101 { // AllocsPerRun's own call and its 100
			t.Errorf("%d of 101 steps reported to the observer", obs.n)
		}
	})
	if res.Outcome != Done {
		t.Fatal(res.Err)
	}
	if avg != 0 {
		t.Fatalf("a step that keeps its thread: %.1f allocations, want 0", avg)
	}
}

// alternate is a chooser and observer that schedules, of two runnable
// threads 0 and 1, the one that did not step last: every step is a
// handoff. It counts the steps it is told of.
type alternate struct {
	last TID
	n    int
}

func (a *alternate) Choose(n int, tag string) int {
	if n < 2 {
		return 0
	}
	return 1 - int(a.last)
}

func (a *alternate) Scheduled(tid TID) { a.last, a.n = tid, a.n+1 }
func (a *alternate) CrashInjected()    {}

// countingReducer is a Reducer that lets every draw through and counts
// the accesses it is told of.
type countingReducer struct{ draws, accesses int }

func (r *countingReducer) Sched(ran *Transition, ready []TID, crash bool) bool {
	r.draws++
	if ran != nil {
		r.accesses += len(ran.Accesses())
	}
	return true
}

// TestFootprintAllocs: recording a transition's footprint and handing it
// to the Reducer at every draw allocates nothing, a handoff included;
// past MaxAccesses a transition is global.
func TestFootprintAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's allocations are not the program's")
	}
	red, alt := &countingReducer{}, &alternate{}
	m := New(Options{MaxSteps: 1 << 30, Reducer: red, Observer: alt})
	var avg float64
	res := m.RunEra(alt, false, func(mt *T) {
		r := NewRef(mt, "x", false) // a bool boxes without allocating
		mt.Go(func(c *T) {
			for {
				r.Load(c)
			}
		})
		avg = testing.AllocsPerRun(100, func() {
			r.StoreAtomic(mt, !r.Load(mt))
			for o := Obj(0); o < 4; o++ {
				m.Touch(o, Read)
			}
		})
		for o := Obj(0); o <= MaxAccesses; o++ {
			m.Touch(o, Write)
		}
		if !m.red.tr.Global() {
			t.Errorf("a transition of %d accesses is not global", MaxAccesses+1)
		}
		mt.Failf("done")
	})
	if res.Outcome != Violation {
		t.Fatal(res)
	}
	if avg != 0 {
		t.Fatalf("a declared step and its draw: %.1f allocations, want 0", avg)
	}
	if red.draws == 0 || red.accesses == 0 {
		t.Fatalf("the reducer saw %d draws and %d accesses", red.draws, red.accesses)
	}
}

// TestTransitionsSayThreadAndSpawn: the Reducer is told which thread
// ran each transition and which thread a go step spawned, the one
// happens-before edge between two threads that no footprint carries.
func TestTransitionsSayThreadAndSpawn(t *testing.T) {
	rec := &Recorder{}
	m := New(Options{Reducer: rec})
	var child TID
	res := m.RunEra(SeqChooser{}, false, func(mt *T) {
		r := NewRef(mt, "x", 0)
		child = mt.Go(func(c *T) { r.Load(c) })
		r.Load(mt)
	})
	if res.Outcome != Done {
		t.Fatal(res)
	}
	// t0: start..alloc, alloc..go, go..load (spawns), load..exit; then
	// t1: start..load, load..exit.
	wantThreads := []TID{0, 0, 0, 0, 1, 1}
	wantSpawned := []TID{-1, -1, child, -1, -1, -1}
	if !slices.Equal(rec.Threads, wantThreads) || !slices.Equal(rec.Spawned, wantSpawned) {
		t.Fatalf("threads %v, spawned %v; want %v and %v", rec.Threads, rec.Spawned, wantThreads, wantSpawned)
	}
	if !Conflict(rec.Ran[2], []Access{Access(threadsObj)<<2 | Access(Write)}) {
		t.Errorf("the go step's transition %v does not write the thread table", rec.Ran[2])
	}
}
