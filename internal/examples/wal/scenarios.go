package wal

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
	G *core.Ctx
	D *disk.Disk
	W *WAL
}

// Variant selects the implementation under check.
type Variant int

const (
	// VariantVerified is the ghost-annotated WAL implementation.
	VariantVerified Variant = iota
	// VariantNoLog writes the data blocks in place (buggy).
	VariantNoLog
	// VariantRecoverClearOnly clears the flag without applying (buggy).
	VariantRecoverClearOnly
)

// ScenarioOptions shapes the workload.
type ScenarioOptions struct {
	// Writers spawns one transaction per pair.
	Writers []OpWrite
	// Readers spawns this many concurrent readers.
	Readers int
	// MaxCrashes bounds injected crashes.
	MaxCrashes int
	// PostReads reads the pair back this many times at the end.
	PostReads int
}

// Scenario builds the checkable scenario for the chosen variant.
func Scenario(name string, v Variant, o ScenarioOptions) *explore.Scenario {
	ghost := v == VariantVerified
	sp := Spec()

	doWrite := func(t *machine.T, w *World, h *explore.Harness, op OpWrite) {
		h.Op(op, func() spec.Ret {
			switch v {
			case VariantNoLog:
				w.W.WriteNoLog(t, op.V1, op.V2)
			default:
				j := w.G.NewJTok(op)
				w.W.WritePair(t, j, op.V1, op.V2)
				w.G.FinishOp(t, j, nil)
			}
			return nil
		})
	}
	doRead := func(t *machine.T, w *World, h *explore.Harness) {
		op := OpRead{}
		h.Op(op, func() spec.Ret {
			j := w.G.NewJTok(op)
			got := w.W.ReadPair(t, j)
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
			w.W = New(t, w.G, w.D)
		},
		Main: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			for _, wr := range o.Writers {
				op := wr
				t.Go(func(c *machine.T) { doWrite(c, w, h, op) })
			}
			for i := 0; i < o.Readers; i++ {
				t.Go(func(c *machine.T) { doRead(c, w, h) })
			}
		},
		Recover: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			if v == VariantRecoverClearOnly {
				w.W = RecoverClearOnly(t, w.W)
			} else {
				w.W = Recover(t, w.W)
			}
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			for i := 0; i < o.PostReads; i++ {
				doRead(t, w, h)
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
			if w.D.Peek(addrData1) != src.V1 || w.D.Peek(addrData2) != src.V2 {
				return fmt.Errorf("AbsR: data (%d,%d) but source (%d,%d)",
					w.D.Peek(addrData1), w.D.Peek(addrData2), src.V1, src.V2)
			}
			return nil
		}
	}
	// All crash-surviving state lives in fingerprintable devices (the
	// disks and the ghost Ctx), so the scenario opts into crash-boundary
	// dedup with an identity hook (DESIGN.md §5).
	s.Fingerprint = func(_ any, b []byte) []byte { return b }
	return s
}
