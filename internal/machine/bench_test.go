package machine

import "testing"

// Micro-benchmarks for the modeled machine's primitives: the model
// checker's throughput is bounded by steps/second, so these numbers
// bound how large a scenario's exploration budget can usefully be.

func BenchmarkStepThroughput(b *testing.B) {
	m := New(Options{MaxSteps: b.N + 10})
	res := m.RunEra(SeqChooser{}, false, func(t *T) {
		for i := 0; i < b.N; i++ {
			t.Step("bench")
		}
	})
	if res.Outcome != Done {
		b.Fatal(res.Err)
	}
}

// BenchmarkStepHandoff is BenchmarkStepThroughput with two threads and
// a chooser that always picks the other one: every step hands over, the
// price of the coroutine switches a step that keeps its thread skips.
func BenchmarkStepHandoff(b *testing.B) {
	alt := &alternate{}
	m := New(Options{MaxSteps: b.N + 10, Observer: alt})
	res := m.RunEra(alt, false, func(t *T) {
		loop := func(c *T) {
			for i := 0; i < b.N/2; i++ {
				c.Step("bench")
			}
		}
		t.Go(loop)
		loop(t)
	})
	if res.Outcome != Done {
		b.Fatal(res.Err)
	}
}

func BenchmarkRefLoadStore(b *testing.B) {
	m := New(Options{MaxSteps: 3*b.N + 10})
	res := m.RunEra(SeqChooser{}, false, func(t *T) {
		r := NewRef(t, "x", 0)
		for i := 0; i < b.N; i++ {
			r.Store(t, r.Load(t))
		}
	})
	if res.Outcome != Done {
		b.Fatal(res.Err)
	}
}

func BenchmarkLockAcquireRelease(b *testing.B) {
	m := New(Options{MaxSteps: 2*b.N + 10})
	res := m.RunEra(SeqChooser{}, false, func(t *T) {
		l := NewLock(t, "l")
		for i := 0; i < b.N; i++ {
			l.Acquire(t)
			l.Release(t)
		}
	})
	if res.Outcome != Done {
		b.Fatal(res.Err)
	}
}

func BenchmarkEraSetupTeardown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New(Options{})
		res := m.RunEra(SeqChooser{}, false, func(t *T) {
			t.Step("one")
		})
		if res.Outcome != Done {
			b.Fatal(res.Err)
		}
	}
}

// benchThreads prices one spawned thread — spawn, first resume, body,
// exit — in eras of 32 threads on machines from newMachine, so that the
// era's own cost is a thirtieth of the figure and the thread list stays
// short. Fresh is a bare machine (New): a new coroutine per thread, as
// every thread had before carriers. Warm is one owner's carrier set
// (NewOn), as the checker's workers run.
func benchThreads(b *testing.B, newMachine func() *Machine, body func(c *T)) {
	const perEra = 32
	b.ReportAllocs()
	for left := b.N; left > 0; left -= perEra {
		n := min(left, perEra)
		res := newMachine().RunEra(SeqChooser{}, false, func(t *T) {
			for i := 0; i < n; i++ {
				t.Go(body)
			}
		})
		if res.Outcome != Done {
			b.Fatal(res.Err)
		}
	}
}

func fresh() *Machine { return New(Options{}) }

// warm returns a constructor of machines on one carrier set, released
// when the benchmark ends.
func warm(b *testing.B) func() *Machine {
	cs := &Carriers{}
	b.Cleanup(cs.Release)
	return func() *Machine { return NewOn(cs, Options{}) }
}

func shallow(c *T) { c.Step("x") }

// deep recurses past 8 KB of stack before its first step, as a mailboat
// operation does on its way down to the file-system model: a fresh 2 KB
// coroutine stack is grown (copied) three times to hold it.
func deep(c *T) { descend(c, 64) }

//go:noinline
func descend(c *T, n int) byte {
	var frame [192]byte
	frame[n] = byte(n)
	if n == 0 {
		c.Step("bottom")
		return frame[0]
	}
	return descend(c, n-1) + frame[n]
}

func BenchmarkThreadSpawn(b *testing.B)     { benchThreads(b, fresh, shallow) }
func BenchmarkThreadSpawnWarm(b *testing.B) { benchThreads(b, warm(b), shallow) }
func BenchmarkDeepThreadFresh(b *testing.B) { benchThreads(b, fresh, deep) }
func BenchmarkDeepThreadWarm(b *testing.B)  { benchThreads(b, warm(b), deep) }
