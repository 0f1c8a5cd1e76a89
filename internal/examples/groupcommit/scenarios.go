package groupcommit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/spec"
)

// World carries the durable and ghost state across eras.
type World struct {
	G  *core.Ctx
	D  *disk.Disk
	GC *GC
}

// Variant selects the implementation under check.
type Variant int

const (
	// VariantVerified is the ghost-annotated implementation.
	VariantVerified Variant = iota
	// VariantFlushNoLog flushes without the log (buggy).
	VariantFlushNoLog
	// VariantRacyRead reads the buffer without the lock (buggy: a data
	// race, i.e. undefined behaviour under §6.1).
	VariantRacyRead
)

// Step is one workload action: a write, a read, or a flush, run on its
// own thread.
type Step struct {
	Write *OpWrite
	Read  bool
	Flush bool
}

// ScenarioOptions shapes the workload.
type ScenarioOptions struct {
	// Steps spawns one thread per entry.
	Steps []Step
	// MaxCrashes bounds injected crashes.
	MaxCrashes int
	// PostReads reads the pair back this many times at the end.
	PostReads int
}

// Scenario builds the checkable scenario for the chosen variant.
func Scenario(name string, v Variant, o ScenarioOptions) *explore.Scenario {
	ghost := v == VariantVerified
	sp := Spec()

	read := func(t *machine.T, w *World) spec.Ret {
		j := w.G.NewJTok(OpRead{})
		got := w.GC.Read(t, j)
		w.G.FinishOp(t, j, got)
		return got
	}
	runStep := func(t *machine.T, w *World, h *explore.Harness, st Step) {
		switch {
		case st.Write != nil:
			op := *st.Write
			h.Op(op, func() spec.Ret {
				j := w.G.NewJTok(op)
				w.GC.Write(t, j, op.V1, op.V2)
				w.G.FinishOp(t, j, nil)
				return nil
			})
		case st.Read:
			h.Op(OpRead{}, func() spec.Ret {
				if v == VariantRacyRead {
					return w.GC.ReadNoLock(t)
				}
				return read(t, w)
			})
		case st.Flush:
			op := OpFlush{}
			h.Op(op, func() spec.Ret {
				if v == VariantFlushNoLog {
					w.GC.FlushNoLog(t)
					return nil
				}
				j := w.G.NewJTok(op)
				w.GC.Flush(t, j)
				w.G.FinishOp(t, j, nil)
				return nil
			})
		}
	}

	s := &explore.Scenario{
		Name:        name,
		Spec:        sp,
		MachineOpts: machine.Options{MaxSteps: 5000},
		MaxCrashes:  o.MaxCrashes,
		Setup: func(m *machine.Machine) any {
			w := &World{}
			w.D = disk.New(m, "d", DiskSize, false)
			if ghost {
				w.G = core.NewCtx(m)
				w.G.InitSim(sp, sp.Init())
			}
			return w
		},
		Init: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			w.GC = New(t, w.G, w.D)
		},
		Main: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			for _, st := range o.Steps {
				st := st
				t.Go(func(c *machine.T) { runStep(c, w, h, st) })
			}
		},
		Recover: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			w.GC = Recover(t, w.GC)
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			for i := 0; i < o.PostReads; i++ {
				h.Op(OpRead{}, func() spec.Ret { return read(t, w) })
			}
		},
	}

	if ghost {
		s.Invariant = func(m *machine.Machine, wAny any) error {
			w := wAny.(*World)
			if w.G.CrashPending() {
				return fmt.Errorf("spec crash step still owed")
			}
			src := w.G.Source().(State)
			if flag := w.D.Peek(addrFlag); flag != 0 {
				return fmt.Errorf("commit flag still set (%d) at an era boundary", flag)
			}
			if w.D.Peek(addrData1) != src.DurV1 || w.D.Peek(addrData2) != src.DurV2 {
				return fmt.Errorf("AbsR: durable data (%d,%d) but source durable (%d,%d)",
					w.D.Peek(addrData1), w.D.Peek(addrData2), src.DurV1, src.DurV2)
			}
			return nil
		}
	}
	return s
}
