package machine

import (
	"strings"
	"testing"
)

func TestRandZeroBoundIsViolation(t *testing.T) {
	m := New(Options{})
	res := m.RunEra(SeqChooser{}, false, func(mt *T) {
		mt.RandUint64(0)
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "zero bound") {
		t.Fatalf("res=%+v", res)
	}
}

func TestChooserOutOfRangeIsViolation(t *testing.T) {
	m := New(Options{})
	bad := ChooserFunc(func(n int, tag string) int {
		if tag == "rand" {
			return n + 5
		}
		return 0
	})
	res := m.RunEra(bad, false, func(mt *T) {
		mt.Choose(3, "rand")
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "out of range") {
		t.Fatalf("res=%+v", res)
	}
}

func TestSchedulerChoiceOutOfRangeIsViolation(t *testing.T) {
	m := New(Options{})
	bad := ChooserFunc(func(n int, tag string) int { return n })
	res := m.RunEra(bad, false, func(mt *T) {
		mt.Step("one")
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "out of range") {
		t.Fatalf("res=%+v", res)
	}
}

func TestCrashResetDuringEraIsRejected(t *testing.T) {
	// CrashReset must never run while threads are live; the panic it
	// raises inside the thread is surfaced as a violation by the thread
	// wrapper.
	m := New(Options{})
	res := m.RunEra(SeqChooser{}, false, func(mt *T) {
		m.CrashReset()
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "CrashReset during a running era") {
		t.Fatalf("res=%+v", res)
	}
}

func TestStepsCounterAdvances(t *testing.T) {
	m := New(Options{})
	before := m.Steps()
	m.RunEra(SeqChooser{}, false, func(mt *T) {
		mt.Step("a")
		mt.Step("b")
	})
	if got := m.Steps() - before; got != 2 {
		t.Fatalf("steps advanced by %d", got)
	}
}

func TestResetTraceClears(t *testing.T) {
	m := New(Options{TraceDepth: TraceAll})
	m.RunEra(SeqChooser{}, false, func(mt *T) { mt.Tracef("hello") })
	if len(m.Trace()) == 0 {
		t.Fatal("no trace recorded")
	}
	m.ResetTrace()
	if len(m.Trace()) != 0 {
		t.Fatal("ResetTrace did not clear")
	}
}

func TestLoadWrongTypeIsViolation(t *testing.T) {
	m := New(Options{})
	res := m.RunEra(SeqChooser{}, false, func(mt *T) {
		r := NewRef(mt, "x", 7)
		// Reinterpret the same cell at a different type via a second
		// typed handle sharing the cell — simulate by storing through an
		// any-typed ref. The typed Ref API makes this hard to do by
		// accident; the runtime check still guards the model's own
		// bookkeeping.
		_ = r.Load(mt)
		any := &Ref[string]{c: r.c}
		_ = any.Load(mt)
	})
	if res.Outcome != Violation || !strings.Contains(res.Err.Error(), "wrong type") {
		t.Fatalf("res=%+v", res)
	}
}

func TestHolderAccessor(t *testing.T) {
	m := New(Options{})
	m.RunEra(SeqChooser{}, false, func(mt *T) {
		l := NewLock(mt, "l")
		if l.Holder() != -1 {
			mt.Failf("fresh lock held by %d", l.Holder())
		}
		l.Acquire(mt)
		if l.Holder() != mt.ID() {
			mt.Failf("holder=%d", l.Holder())
		}
		l.Release(mt)
	})
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Done:        "done",
		Crashed:     "crashed",
		Violation:   "violation",
		Outcome(99): "Outcome(99)",
	} {
		if o.String() != want {
			t.Fatalf("%d -> %q", int(o), o.String())
		}
	}
}
