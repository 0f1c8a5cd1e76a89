package disk

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func TestReadBackAfterWrite(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 8, false)
	var got Block
	var ok bool
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		d.Write(mt, 3, 99)
		got, ok = d.Read(mt, 3)
	})
	if res.Outcome != machine.Done || !ok || got != 99 {
		t.Fatalf("res=%+v got=%d ok=%v", res, got, ok)
	}
}

func TestFreshDiskReadsZero(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 4, false)
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		for a := uint64(0); a < 4; a++ {
			v, ok := d.Read(mt, a)
			if !ok || v != 0 {
				mt.Failf("block %d = %d ok=%v", a, v, ok)
			}
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestContentsSurviveCrash(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 8, false)
	m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		d.Write(mt, 1, 11)
		d.Write(mt, 2, 22)
	})
	m.CrashReset()
	var v1, v2 Block
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		v1, _ = d.Read(mt, 1)
		v2, _ = d.Read(mt, 2)
	})
	if res.Outcome != machine.Done || v1 != 11 || v2 != 22 {
		t.Fatalf("res=%+v v1=%d v2=%d", res, v1, v2)
	}
}

func TestOutOfBoundsReadIsUB(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 4, false)
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		d.Read(mt, 4)
	})
	if res.Outcome != machine.Violation || !strings.Contains(res.Err.Error(), "out of bounds") {
		t.Fatalf("res=%+v", res)
	}
}

func TestOutOfBoundsWriteIsUB(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 4, false)
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		d.Write(mt, 100, 1)
	})
	if res.Outcome != machine.Violation {
		t.Fatalf("res=%+v", res)
	}
}

func TestManualFailureMakesReadsFail(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 4, false)
	d.Fail()
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if _, ok := d.Read(mt, 0); ok {
			mt.Failf("read on failed disk succeeded")
		}
		d.Write(mt, 0, 5) // dropped, not a violation
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if d.Peek(0) != 0 {
		t.Fatal("write to failed disk was not dropped")
	}
}

func TestFailureStatusSurvivesCrash(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 4, false)
	d.Fail()
	m.CrashReset()
	if !d.Failed() {
		t.Fatal("failure status must be durable")
	}
}

func TestChooserDrivenFailureInjection(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 4, true)
	failNow := machine.ChooserFunc(func(n int, tag string) int {
		if tag == "diskfail" {
			return 1
		}
		return 0
	})
	res := m.RunEra(failNow, false, func(mt *machine.T) {
		if _, ok := d.Read(mt, 0); ok {
			mt.Failf("expected injected failure")
		}
	})
	if res.Outcome != machine.Done || !d.Failed() {
		t.Fatalf("res=%+v failed=%v", res, d.Failed())
	}
}

func TestNoFailureWhenChooserDeclines(t *testing.T) {
	m := machine.New(machine.Options{})
	d := New(m, "d1", 4, true)
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		if _, ok := d.Read(mt, 0); !ok {
			mt.Failf("unexpected failure")
		}
	})
	if res.Outcome != machine.Done || d.Failed() {
		t.Fatalf("res=%+v failed=%v", res, d.Failed())
	}
}

func TestQuickWriteReadIdentity(t *testing.T) {
	// For any address and value (in range), write-then-read returns the
	// value, across an interleaving-free single thread.
	err := quick.Check(func(addr8 uint8, v uint64) bool {
		a := uint64(addr8) % 16
		m := machine.New(machine.Options{})
		d := New(m, "d", 16, false)
		var got Block
		var ok bool
		res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			d.Write(mt, a, v)
			got, ok = d.Read(mt, a)
		})
		return res.Outcome == machine.Done && ok && got == v
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickDurabilityAcrossCrashes(t *testing.T) {
	// Any sequence of writes is fully durable across any number of
	// crashes (block writes are atomic; no buffering in this model).
	type wr struct {
		Addr uint8
		Val  uint64
	}
	err := quick.Check(func(ws []wr, crashes uint8) bool {
		m := machine.New(machine.Options{})
		d := New(m, "d", 32, false)
		want := make(map[uint64]uint64)
		res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			for _, w := range ws {
				a := uint64(w.Addr) % 32
				d.Write(mt, a, w.Val)
				want[a] = w.Val
			}
		})
		if res.Outcome != machine.Done {
			return false
		}
		for i := 0; i < int(crashes%4); i++ {
			m.CrashReset()
		}
		for a, v := range want {
			if d.Peek(a) != v {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestUntracedReadWriteAllocs: untraced, a block read or write boxes
// none of its trace arguments, so it allocates nothing. The traced
// control still prints both lines.
func TestUntracedReadWriteAllocs(t *testing.T) {
	rw := func(depth int) (allocs float64, trace []string) {
		m := machine.New(machine.Options{TraceDepth: depth})
		d := New(m, "d1", 8, false)
		res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			cycle := func() {
				d.Write(mt, 3, 1000)
				if v, ok := d.Read(mt, 3); !ok || v != 1000 {
					mt.Failf("read %d ok=%v", v, ok)
				}
			}
			cycle()
			trace = append(trace, m.Trace()...)
			allocs = testing.AllocsPerRun(100, cycle)
		})
		if res.Outcome != machine.Done {
			t.Fatalf("res=%+v", res)
		}
		return allocs, trace
	}
	if a, lines := rw(0); a != 0 || len(lines) != 0 {
		t.Errorf("untraced write+read: %v allocations and %d trace lines, want none", a, len(lines))
	}
	a, lines := rw(machine.TraceAll)
	want := []string{"t0: disk_write d1[3] = 1000", "t0: disk_read d1[3] -> 1000"}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("traced write+read printed %q, want %q", lines, want)
	}
	if a == 0 {
		t.Error("traced write+read allocated nothing: is the trace attached?")
	}
}
