package journal

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
	J *Journal
}

// Variant selects the implementation under check.
type Variant int

const (
	// VariantVerified is the ghost-annotated journal.
	VariantVerified Variant = iota
	// VariantNoLog applies transactions in place without logging (buggy:
	// torn multi-address commits).
	VariantNoLog
	// VariantRecoverSkip reboots without redoing the log (buggy:
	// committed-but-unapplied transactions tear).
	VariantRecoverSkip
)

// ScenarioOptions shapes the workload.
type ScenarioOptions struct {
	// Size is the data region size in blocks.
	Size uint64
	// Txns spawns one committing transaction per entry.
	Txns [][]Write
	// Readers spawns one point reader per listed address.
	Readers []uint64
	// MaxCrashes bounds injected crashes.
	MaxCrashes int
	// PostReads reads back these addresses at the end.
	PostReads []uint64
}

// commitNoLog is the buggy variant: write the data region directly.
func commitNoLog(t *machine.T, j *Journal, ws []Write) {
	j.lock.Acquire(t)
	for _, w := range ws {
		j.d.Write(t, dataBase()+w.A, w.V)
	}
	j.lock.Release(t)
}

// recoverSkip is the buggy recovery: clear the header without redoing.
func recoverSkip(t *machine.T, old *Journal) *Journal {
	j := &Journal{size: old.size, d: old.d}
	j.lock = machine.NewLock(t, "journal")
	j.d.Write(t, addrHeader, 0)
	return j
}

// Scenario builds the checkable scenario for the chosen variant.
func Scenario(name string, v Variant, o ScenarioOptions) *explore.Scenario {
	ghost := v == VariantVerified
	sp := Spec(o.Size)

	commit := func(t *machine.T, w *World, h *explore.Harness, ws []Write) {
		op := OpCommit{Writes: ws}
		h.Op(op, func() spec.Ret {
			if v == VariantNoLog {
				commitNoLog(t, w.J, ws)
				return nil
			}
			tx := w.J.Begin(t)
			for _, wr := range ws {
				tx.Write(t, wr.A, wr.V)
			}
			jt := w.G.NewJTok(op)
			tx.Commit(t, jt)
			w.G.FinishOp(t, jt, nil)
			return nil
		})
	}
	read := func(t *machine.T, w *World, h *explore.Harness, a uint64) {
		op := OpRead{A: a}
		h.Op(op, func() spec.Ret {
			jt := w.G.NewJTok(op)
			got := w.J.ReadBlock(t, jt, a)
			w.G.FinishOp(t, jt, got)
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
			w.D = disk.New(m, "jd", DiskBlocks(o.Size), false)
			if ghost {
				w.G = core.NewCtx(m)
				w.G.InitSim(sp, sp.Init())
			}
			return w
		},
		Init: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			w.J = New(t, w.G, w.D, o.Size)
		},
		Main: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			for _, ws := range o.Txns {
				ws := ws
				t.Go(func(c *machine.T) { commit(c, w, h, ws) })
			}
			for _, a := range o.Readers {
				a := a
				t.Go(func(c *machine.T) { read(c, w, h, a) })
			}
		},
		Recover: func(t *machine.T, wAny any) {
			w := wAny.(*World)
			if v == VariantRecoverSkip {
				w.J = recoverSkip(t, w.J)
			} else {
				w.J = Recover(t, w.J)
			}
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*World)
			for _, a := range o.PostReads {
				read(t, w, h, a)
			}
		},
	}

	if ghost {
		s.Invariant = func(m *machine.Machine, wAny any) error {
			w := wAny.(*World)
			if w.G.CrashPending() {
				return fmt.Errorf("spec crash step still owed")
			}
			if hdr := w.D.Peek(addrHeader); hdr != 0 {
				return fmt.Errorf("log header still set (%d) at an era boundary", hdr)
			}
			src := w.G.Source().(State)
			for a := uint64(0); a < o.Size; a++ {
				if got := w.D.Peek(dataBase() + a); got != src.Blocks[a] {
					return fmt.Errorf("AbsR: data[%d]=%d but source says %d", a, got, src.Blocks[a])
				}
			}
			return nil
		}
	}
	// All crash-surviving state lives in fingerprintable devices (the
	// disks and the ghost Ctx), so the scenario opts into crash-boundary
	// dedup with an identity hook (DESIGN.md "Crash-boundary dedup").
	s.Fingerprint = func(_ any, b []byte) []byte { return b }
	return s
}
