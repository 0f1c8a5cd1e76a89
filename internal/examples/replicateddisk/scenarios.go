package replicateddisk

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/spec"
)

// World is the durable-plus-ghost state a scenario carries across eras.
type World struct {
	G      *core.Ctx
	D1, D2 *disk.Disk
	RD     *RD
	Size   uint64
}

// ScenarioOptions selects the workload shape and fault model.
type ScenarioOptions struct {
	// Size is the disk size in blocks.
	Size uint64
	// Writers spawns one writer thread per entry, writing Writers[i].V to
	// Writers[i].A.
	Writers []OpWrite
	// Readers spawns one reader thread per address listed (concurrent
	// with the writers).
	Readers []uint64
	// D1MayFail lets the chooser fail disk 1 at any read.
	D1MayFail bool
	// MaxCrashes bounds injected crashes.
	MaxCrashes int
	// PostReads reads back these addresses after recovery completes.
	PostReads []uint64
}

// Verified builds the checkable scenario for the ghost-annotated,
// correct implementation.
func Verified(name string, o ScenarioOptions) *explore.Scenario {
	return build(name, o, variantVerified)
}

// BugNoRecovery builds the §3.1 missing-recovery variant.
func BugNoRecovery(name string, o ScenarioOptions) *explore.Scenario {
	return build(name, o, variantNoRecovery)
}

// BugZeroingRecovery builds the §1 zeroing-recovery variant.
func BugZeroingRecovery(name string, o ScenarioOptions) *explore.Scenario {
	return build(name, o, variantZeroing)
}

// BugNoLock builds the lock-free-writes variant.
func BugNoLock(name string, o ScenarioOptions) *explore.Scenario {
	return build(name, o, variantNoLock)
}

// BugD1Only builds the writes-skip-disk-2 variant.
func BugD1Only(name string, o ScenarioOptions) *explore.Scenario {
	return build(name, o, variantD1Only)
}

type variant int

const (
	variantVerified variant = iota
	variantNoRecovery
	variantZeroing
	variantNoLock
	variantD1Only
)

func build(name string, o ScenarioOptions, v variant) *explore.Scenario {
	ghost := v == variantVerified
	sp := Spec(o.Size)

	doWrite := func(t *machine.T, w *World, h *explore.Harness, op OpWrite) {
		h.Op(op, func() spec.Ret {
			switch v {
			case variantNoLock:
				w.RD.WriteNoLock(t, op.A, op.V)
			case variantD1Only:
				w.RD.WriteD1Only(t, op.A, op.V)
			default:
				j := w.G.NewJTok(op)
				w.RD.Write(t, j, op.A, op.V)
				w.G.FinishOp(t, j, nil)
			}
			return nil
		})
	}

	doRead := func(t *machine.T, w *World, h *explore.Harness, a uint64) {
		op := OpRead{A: a}
		h.Op(op, func() spec.Ret {
			j := w.G.NewJTok(op)
			got := w.RD.Read(t, j, a)
			w.G.FinishOp(t, j, got)
			return got
		})
	}

	s := &explore.Scenario{
		Name:        name,
		Spec:        sp,
		MachineOpts: machine.Options{MaxSteps: 5000},
		MaxCrashes:  o.MaxCrashes,
		Setup: func(m *machine.Machine) any {
			w := &World{Size: o.Size}
			w.D1 = disk.New(m, "d1", int(o.Size), o.D1MayFail)
			w.D2 = disk.New(m, "d2", int(o.Size), false)
			if ghost {
				w.G = core.NewCtx(m)
				w.G.InitSim(sp, sp.Init())
			}
			return w
		},
		Init: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			w.RD = New(t, w.G, w.D1, w.D2, o.Size)
		},
		Main: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			for _, wr := range o.Writers {
				op := wr
				t.Go(func(c *machine.T) { doWrite(c, w, h, op) })
			}
			for _, a := range o.Readers {
				addr := a
				t.Go(func(c *machine.T) { doRead(c, w, h, addr) })
			}
		},
		Recover: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			switch v {
			case variantNoRecovery:
				w.RD = Reboot(t, w.RD)
			case variantZeroing:
				w.RD = RecoverByZeroing(t, w.RD)
			default:
				w.RD = Recover(t, w.RD)
			}
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			for _, a := range o.PostReads {
				doRead(t, w, h, a)
			}
		},
	}

	if ghost {
		s.Invariant = func(m *machine.Machine, wAny any) error {
			w := wAny.(*World)
			if w.G.CrashPending() {
				return fmt.Errorf("spec crash step still owed after recovery")
			}
			src := w.G.Source().(State)
			for a := uint64(0); a < o.Size; a++ {
				if !w.D1.Failed() && w.D1.Peek(a) != src.Blocks[a] {
					return fmt.Errorf("AbsR: d1[%d]=%d but source says %d", a, w.D1.Peek(a), src.Blocks[a])
				}
				if w.D2.Peek(a) != src.Blocks[a] {
					return fmt.Errorf("AbsR: d2[%d]=%d but source says %d", a, w.D2.Peek(a), src.Blocks[a])
				}
			}
			return nil
		}
	}
	return s
}
