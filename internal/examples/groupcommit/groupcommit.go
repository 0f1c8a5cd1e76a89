// Package groupcommit implements the group-commit pattern of §9.1
// (Table 3): transactions update an in-memory buffered pair and return
// immediately; an explicit flush combines everything buffered since the
// last flush into a single write-ahead-logged commit, amortizing the
// cost of committing. The specification makes the loss window precise:
// buffered (unflushed) writes may be lost at a crash, flushed ones may
// not.
//
// The spec state therefore has two parts — a durable pair and a volatile
// pair. Writes and reads touch the volatile pair, flush copies volatile
// to durable, and the crash transition resets volatile to durable.
//
// Disk layout is the same five-block WAL as internal/examples/wal; the
// buffered pair lives in versioned heap cells, which the machine erases
// at a crash (§5.2).
package groupcommit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/tsl"
)

// DiskSize is the number of blocks the pattern uses.
const DiskSize = 5

const (
	addrFlag  = 0
	addrLog1  = 1
	addrLog2  = 2
	addrData1 = 3
	addrData2 = 4
)

// State is the spec state: durable and volatile pairs.
type State struct {
	DurV1, DurV2 uint64
	VolV1, VolV2 uint64
}

// OpWrite buffers a new pair (volatile until flushed).
type OpWrite struct{ V1, V2 uint64 }

func (o OpWrite) String() string { return fmt.Sprintf("buf_write(%d, %d)", o.V1, o.V2) }

// OpRead reads the buffered pair.
type OpRead struct{}

func (OpRead) String() string { return "buf_read()" }

// OpFlush makes the buffered pair durable.
type OpFlush struct{}

func (OpFlush) String() string { return "flush()" }

// Pair is OpRead's return value.
type Pair struct{ V1, V2 uint64 }

// Spec is the group-commit specification. Crash resets the volatile
// pair to the durable one — this is where the spec "specifies when
// transactions can be lost" (§9.1).
func Spec() spec.Interface {
	return &spec.TSL[State]{
		SpecName: "group-commit-pair",
		Initial:  State{},
		OpTransition: func(op spec.Op) tsl.Transition[State, spec.Ret] {
			switch o := op.(type) {
			case OpWrite:
				return tsl.Then(
					tsl.Modify(func(s State) State {
						s.VolV1, s.VolV2 = o.V1, o.V2
						return s
					}),
					tsl.Ret[State, spec.Ret](nil))
			case OpRead:
				return tsl.Gets(func(s State) spec.Ret { return Pair{V1: s.VolV1, V2: s.VolV2} })
			case OpFlush:
				return tsl.Then(
					tsl.Modify(func(s State) State {
						s.DurV1, s.DurV2 = s.VolV1, s.VolV2
						return s
					}),
					tsl.Ret[State, spec.Ret](nil))
			default:
				panic(fmt.Sprintf("groupcommit: unknown op %T", op))
			}
		},
		CrashTransition: func(s State) []spec.State {
			s.VolV1, s.VolV2 = s.DurV1, s.DurV2
			return []spec.State{s}
		},
	}
}

// GC is the group-commit object for one era.
type GC struct {
	d    *disk.Disk
	lock *machine.Lock
	buf1 *machine.Ref[uint64]
	buf2 *machine.Ref[uint64]

	g       *core.Ctx
	masters [DiskSize]*core.Master
	leases  [DiskSize]*core.Lease
}

// New boots the object on a fresh disk; the buffer starts equal to the
// durable pair.
func New(t *machine.T, g *core.Ctx, d *disk.Disk) *GC {
	gc := &GC{d: d, g: g}
	gc.lock = machine.NewLock(t, "gc")
	gc.buf1 = machine.NewRef(t, "gc.buf1", d.Peek(addrData1))
	gc.buf2 = machine.NewRef(t, "gc.buf2", d.Peek(addrData2))
	if g != nil {
		for a := 0; a < DiskSize; a++ {
			gc.masters[a], gc.leases[a] = g.NewDurable(t, fmt.Sprintf("gc[%d]", a), d.Peek(uint64(a)))
			g.DepositMaster(t, gc.masters[a])
		}
	}
	return gc
}

// Write buffers the pair in memory and returns; durability waits for
// Flush. The spec step happens inside the critical section.
func (gc *GC) Write(t *machine.T, j *core.JTok, v1, v2 uint64) {
	gc.lock.Acquire(t)
	gc.buf1.Store(t, v1)
	gc.buf2.Store(t, v2)
	if gc.g != nil && j != nil {
		gc.g.StepSim(t, j, nil)
	}
	gc.lock.Release(t)
}

// Read returns the buffered pair.
func (gc *GC) Read(t *machine.T, j *core.JTok) Pair {
	gc.lock.Acquire(t)
	v1 := gc.buf1.Load(t)
	v2 := gc.buf2.Load(t)
	if gc.g != nil && j != nil {
		gc.g.StepSim(t, j, Pair{V1: v1, V2: v2})
	}
	gc.lock.Release(t)
	return Pair{V1: v1, V2: v2}
}

// Flush commits the buffered pair with one write-ahead-logged
// transaction, combining every write since the previous flush (this is
// the "group" in group commit). The crash-window reasoning is the same
// as internal/examples/wal's WritePair: the flush's j ⤇ op token is
// deposited before the commit write and either self-simulated at the
// flag clear or helped by recovery.
func (gc *GC) Flush(t *machine.T, j *core.JTok) {
	gc.lock.Acquire(t)
	v1 := gc.buf1.Load(t)
	v2 := gc.buf2.Load(t)

	gc.d.Write(t, addrLog1, v1)
	if gc.g != nil {
		gc.g.Update(t, gc.masters[addrLog1], gc.leases[addrLog1], v1, nil)
	}
	gc.d.Write(t, addrLog2, v2)
	if gc.g != nil {
		gc.g.Update(t, gc.masters[addrLog2], gc.leases[addrLog2], v2, nil)
		if j != nil {
			gc.g.DepositHelping(t, j)
		}
	}

	gc.d.Write(t, addrFlag, 1)
	if gc.g != nil {
		gc.g.Update(t, gc.masters[addrFlag], gc.leases[addrFlag], uint64(1), nil)
	}

	gc.d.Write(t, addrData1, v1)
	if gc.g != nil {
		gc.g.Update(t, gc.masters[addrData1], gc.leases[addrData1], v1, nil)
	}
	gc.d.Write(t, addrData2, v2)
	if gc.g != nil {
		gc.g.Update(t, gc.masters[addrData2], gc.leases[addrData2], v2, nil)
	}

	gc.d.Write(t, addrFlag, 0)
	if gc.g != nil {
		gc.g.Update(t, gc.masters[addrFlag], gc.leases[addrFlag], uint64(0), nil)
		if j != nil {
			gc.g.WithdrawHelping(t, j)
			gc.g.StepSim(t, j, nil)
		}
	}
	gc.lock.Release(t)
}

// Recover reboots the object: finish a committed-but-unapplied flush
// (helping its token), clear the flag, rebuild the volatile buffer from
// the durable pair, and discharge the spec crash step — whose transition
// resets the spec's volatile pair to its durable pair, matching the
// buffer rebuild exactly.
func Recover(t *machine.T, old *GC) *GC {
	gc := &GC{d: old.d, g: old.g}
	gc.lock = machine.NewLock(t, "gc")
	g := old.g
	if g != nil {
		for a := 0; a < DiskSize; a++ {
			gc.masters[a], gc.leases[a] = old.masters[a].Resynthesize(t)
			g.DepositMaster(t, gc.masters[a])
		}
	}

	flag, _ := gc.d.Read(t, addrFlag)
	if flag == 1 {
		v1, _ := gc.d.Read(t, addrLog1)
		v2, _ := gc.d.Read(t, addrLog2)
		gc.d.Write(t, addrData1, v1)
		if g != nil {
			g.Update(t, gc.masters[addrData1], gc.leases[addrData1], v1, nil)
		}
		gc.d.Write(t, addrData2, v2)
		if g != nil {
			g.Update(t, gc.masters[addrData2], gc.leases[addrData2], v2, nil)
		}
		gc.d.Write(t, addrFlag, 0)
		if g != nil {
			helped := false
			for _, tok := range g.HelpingTokens() {
				if _, isFlush := tok.Op().(OpFlush); isFlush {
					g.Help(t, tok)
					helped = true
					break
				}
			}
			if !helped {
				s := g.Source().(State)
				if s.DurV1 != v1 || s.DurV2 != v2 {
					t.Failf("recovery found committed flush (%d,%d) with no helping token", v1, v2)
				}
			}
			g.Update(t, gc.masters[addrFlag], gc.leases[addrFlag], uint64(0), nil)
		}
	}
	if g != nil && g.CrashPending() {
		g.CrashSim(t)
	}

	gc.buf1 = machine.NewRef(t, "gc.buf1", gc.d.Peek(addrData1))
	gc.buf2 = machine.NewRef(t, "gc.buf2", gc.d.Peek(addrData2))
	return gc
}

// FlushNoLog is the buggy flush that writes the data blocks directly:
// a crash between the two writes makes a torn pair durable. Unverified.
func (gc *GC) FlushNoLog(t *machine.T) {
	gc.lock.Acquire(t)
	v1 := gc.buf1.Load(t)
	v2 := gc.buf2.Load(t)
	gc.d.Write(t, addrData1, v1)
	gc.d.Write(t, addrData2, v2)
	gc.lock.Release(t)
}

// ReadNoLock is the buggy read that skips the lock: it races with
// Write's two-step stores, which the machine reports as undefined
// behaviour (§6.1). Unverified.
func (gc *GC) ReadNoLock(t *machine.T) Pair {
	v1 := gc.buf1.Load(t)
	v2 := gc.buf2.Load(t)
	return Pair{V1: v1, V2: v2}
}
