package machine

import (
	"strings"
	"testing"
	"testing/quick"
)

// runScripted executes a fixed small concurrent program under a choice
// script and returns the trace; the machine must be a deterministic
// function of the script (the property the stateless model checker's
// replay depends on).
func runScripted(script []int) []string {
	m := New(Options{MaxSteps: 500, TraceDepth: TraceAll})
	sc := &ScriptChooser{Script: script}
	m.RunEra(sc, true, func(t *T) {
		l := NewLock(t, "l")
		r := NewRef(t, "x", 0)
		for i := 0; i < 3; i++ {
			v := i
			t.Go(func(c *T) {
				l.Acquire(c)
				r.Store(c, v)
				l.Release(c)
			})
		}
	})
	return append([]string{}, m.Trace()...)
}

func TestQuickSchedulingIsDeterministic(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		script := make([]int, len(raw))
		for i, b := range raw {
			script[i] = int(b % 5)
		}
		a := runScripted(script)
		b := runScripted(script)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickLockedCounterAlwaysConsistent(t *testing.T) {
	// Under any schedule, n threads each incrementing a locked counter
	// once yield exactly n.
	err := quick.Check(func(seed int64, n8 uint8) bool {
		n := int(n8%5) + 1
		m := New(Options{})
		r := (*Ref[int])(nil)
		res := m.RunEra(NewRandChooser(seed), false, func(t *T) {
			l := NewLock(t, "l")
			r = NewRef(t, "ctr", 0)
			for i := 0; i < n; i++ {
				t.Go(func(c *T) {
					l.Acquire(c)
					r.Store(c, r.Load(c)+1)
					l.Release(c)
				})
			}
		})
		if res.Outcome != Done {
			return false
		}
		// Peek via one more era.
		got := -1
		m.RunEra(SeqChooser{}, false, func(t *T) { got = r.Load(t) })
		return got == n
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickCrashAlwaysKillsEverything(t *testing.T) {
	// Whatever the schedule, once a crash is injected no thread's
	// post-crash effect is visible and the version advances exactly once
	// per CrashReset.
	err := quick.Check(func(seed int64) bool {
		m := New(Options{})
		rc := NewRandChooser(seed)
		rc.CrashWeight = 3
		rc.CrashOption = true
		res := m.RunEra(rc, true, func(t *T) {
			for i := 0; i < 3; i++ {
				t.Go(func(c *T) {
					for j := 0; j < 10; j++ {
						c.Step("work")
					}
				})
			}
		})
		if res.Outcome == Crashed {
			before := m.Version()
			m.CrashReset()
			return m.Version() == before+1
		}
		return res.Outcome == Done
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScriptChooserClampsOutOfRange(t *testing.T) {
	sc := &ScriptChooser{Script: []int{99, -5}}
	if got := sc.Choose(3, "x"); got != 2 {
		t.Fatalf("clamp high: %d", got)
	}
	if got := sc.Choose(3, "x"); got != 0 {
		t.Fatalf("clamp low: %d", got)
	}
	if got := sc.Choose(3, "x"); got != 0 {
		t.Fatalf("exhausted script: %d", got)
	}
}

func TestSeqChooserAlwaysZero(t *testing.T) {
	if (SeqChooser{}).Choose(5, "any") != 0 {
		t.Fatal("SeqChooser must pick 0")
	}
}

func TestRandChooserCrashWeight(t *testing.T) {
	rc := NewRandChooser(1)
	rc.CrashWeight = 2
	rc.CrashOption = true
	crashes := 0
	for i := 0; i < 1000; i++ {
		if rc.Choose(4, "sched") == 3 {
			crashes++
		}
	}
	if crashes < 300 || crashes > 700 {
		t.Fatalf("crash weight off: %d/1000", crashes)
	}
	// Non-sched choices never pick the crash pseudo-option... they may
	// return any index; just check bounds.
	for i := 0; i < 100; i++ {
		if c := rc.Choose(4, "rand"); c < 0 || c >= 4 {
			t.Fatalf("out of range: %d", c)
		}
	}
}

func TestTraceIsScriptReplayable(t *testing.T) {
	// A trace observed once is observed again under the same script —
	// including crash position.
	script := []int{1, 0, 2, 1, 4, 0, 0, 1, 3}
	a := runScripted(script)
	b := runScripted(script)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Fatalf("replay diverged:\n%v\n%v", a, b)
	}
}
