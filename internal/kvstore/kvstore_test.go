package kvstore

import (
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/spec"
)

type world struct {
	d *disk.Disk
	s *Store
}

type stepKind int

const (
	kPut stepKind = iota
	kGet
	kDel
	kPutNoTxn
)

type step struct {
	kind stepKind
	k, v uint64
}

func scenario(name string, caps uint64, steps []step, crashes int, postGets []uint64) *explore.Scenario {
	sp := Spec(caps)
	doGet := func(t *machine.T, w *world, h *explore.Harness, k uint64) {
		h.Op(OpGet{K: k}, func() spec.Ret { return w.s.Get(t, k) })
	}
	return &explore.Scenario{
		Name:        name,
		Spec:        sp,
		MachineOpts: machine.Options{MaxSteps: 5000},
		MaxCrashes:  crashes,
		Setup: func(m *machine.Machine) any {
			return &world{d: disk.New(m, "kv", DiskBlocks(caps), false)}
		},
		Init: func(t *machine.T, wAny any) {
			w := wAny.(*world)
			w.s = New(t, w.d, caps)
		},
		Main: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*world)
			for _, st := range steps {
				st := st
				t.Go(func(c *machine.T) {
					switch st.kind {
					case kPut:
						h.Op(OpPut{K: st.k, V: st.v}, func() spec.Ret {
							w.s.Put(c, st.k, st.v)
							return nil
						})
					case kPutNoTxn:
						h.Op(OpPut{K: st.k, V: st.v}, func() spec.Ret {
							w.s.PutNoTxn(c, st.k, st.v)
							return nil
						})
					case kDel:
						h.Op(OpDel{K: st.k}, func() spec.Ret {
							w.s.Del(c, st.k)
							return nil
						})
					case kGet:
						doGet(c, w, h, st.k)
					}
				})
			}
		},
		Recover: func(t *machine.T, wAny any) {
			w := wAny.(*world)
			w.s = Recover(t, w.s)
		},
		Post: func(t *machine.T, wAny any, h *explore.Harness) {
			w := wAny.(*world)
			for _, k := range postGets {
				doGet(t, w, h, k)
			}
		},
	}
}

func TestSpecBasics(t *testing.T) {
	sp := Spec(2)
	st := sp.Init()
	next, ub := sp.Step(st, OpPut{K: 1, V: 7}, nil)
	if ub || len(next) != 1 {
		t.Fatalf("put: %v %v", next, ub)
	}
	st = next[0]
	if n, _ := sp.Step(st, OpGet{K: 1}, GetResult{V: 7, OK: true}); len(n) != 1 {
		t.Fatal("get of put value rejected")
	}
	if n, _ := sp.Step(st, OpGet{K: 0}, GetResult{}); len(n) != 1 {
		t.Fatal("get of absent key rejected")
	}
	next, _ = sp.Step(st, OpDel{K: 1}, nil)
	st = next[0]
	if n, _ := sp.Step(st, OpGet{K: 1}, GetResult{}); len(n) != 1 {
		t.Fatal("get after del rejected")
	}
	if _, ub := sp.Step(st, OpGet{K: 5}, GetResult{}); !ub {
		t.Fatal("out-of-range get not UB")
	}
}

func TestSequentialSmoke(t *testing.T) {
	m := machine.New(machine.Options{MaxSteps: 100000})
	d := disk.New(m, "kv", DiskBlocks(3), false)
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		s := New(mt, d, 3)
		s.Put(mt, 0, 10)
		s.Put(mt, 2, 30)
		if g := s.Get(mt, 0); !g.OK || g.V != 10 {
			mt.Failf("get 0: %+v", g)
		}
		if g := s.Get(mt, 1); g.OK {
			mt.Failf("get 1: %+v", g)
		}
		s.Del(mt, 0)
		if g := s.Get(mt, 0); g.OK {
			mt.Failf("get after del: %+v", g)
		}
		if g := s.Get(mt, 2); !g.OK || g.V != 30 {
			mt.Failf("get 2: %+v", g)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
}

func TestPutCrashExhaustive(t *testing.T) {
	s := scenario("kv-crash", 2, []step{{kind: kPut, k: 0, v: 5}}, 2, []uint64{0, 1})
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

// TestCrashSelfCheck witnesses crash-boundary dedup on the store: its
// crash-surviving state is the disk alone, a registered device, so the
// reduced search must keep the plain one's verdict, on the crash
// scenarios above, the clean ones and the torn put. Each clean reduced
// search completes. kv-crash's plain search completes too, and the
// outcome sets must be equal. kv-conc's plain search stops at the budget,
// and what it reached must be among the reduced search's outcomes.
func TestCrashSelfCheck(t *testing.T) {
	for _, s := range []*explore.Scenario{
		scenario("kv-crash", 2, []step{{kind: kPut, k: 0, v: 5}}, 2, []uint64{0, 1}),
		scenario("kv-conc", 2, []step{{kind: kPut, k: 0, v: 5}, {kind: kGet, k: 0}, {kind: kDel, k: 0}}, 1, []uint64{0}),
		scenario("kv-bug-notxn", 1, []step{{kind: kPutNoTxn, k: 0, v: 5}}, 1, []uint64{0}),
	} {
		with, without, err := explore.SelfCheck(s, explore.Options{MaxExecutions: 10000})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("reduced %s (%s); plain %s", with, with.Stats, without)
		if with.OK() && !with.Complete {
			t.Errorf("%s: the reduced search stopped at its budget", s.Name)
		}
	}
}

func TestConcurrentPutGetDelWithCrash(t *testing.T) {
	s := scenario("kv-conc", 2, []step{
		{kind: kPut, k: 0, v: 5},
		{kind: kGet, k: 0},
		{kind: kDel, k: 0},
	}, 1, []uint64{0})
	budget := 25000
	if testing.Short() {
		budget = 5000
	}
	rep := explore.Run(s, explore.Options{MaxExecutions: budget})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestBugPutNoTxnTornEntryFound(t *testing.T) {
	// Splitting a put across two transactions lets a crash expose
	// (present, stale-value) — the composed spec forbids it.
	s := scenario("kv-bug-notxn", 1, []step{{kind: kPutNoTxn, k: 0, v: 5}}, 1, []uint64{0})
	rep := explore.Run(s, explore.Options{MaxExecutions: 100000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("torn two-transaction put not found")
	}
}

// TestQuickSequentialAgainstSpec applies random op sequences and
// compares the store against a map.
func TestQuickSequentialAgainstSpec(t *testing.T) {
	const caps = 3
	err := quick.Check(func(raw []uint16) bool {
		if len(raw) > 12 {
			raw = raw[:12]
		}
		m := machine.New(machine.Options{MaxSteps: 200000})
		d := disk.New(m, "kv", DiskBlocks(caps), false)
		present := [caps]bool{}
		vals := [caps]uint64{}
		okAll := true
		res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			s := New(mt, d, caps)
			for _, r := range raw {
				k := uint64(r) % caps
				v := uint64(r >> 4)
				switch (r >> 2) % 3 {
				case 0:
					s.Put(mt, k, v)
					present[k], vals[k] = true, v
				case 1:
					s.Del(mt, k)
					present[k], vals[k] = false, 0
				case 2:
					g := s.Get(mt, k)
					if g.OK != present[k] || (g.OK && g.V != vals[k]) {
						okAll = false
					}
				}
			}
		})
		return res.Outcome == machine.Done && okAll
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickDurabilityAcrossCrash puts a batch of keys, crashes at the
// end, recovers, and requires every completed put to survive.
func TestQuickDurabilityAcrossCrash(t *testing.T) {
	const caps = 3
	err := quick.Check(func(pairs [][2]uint8) bool {
		if len(pairs) > 5 {
			pairs = pairs[:5]
		}
		m := machine.New(machine.Options{MaxSteps: 200000})
		d := disk.New(m, "kv", DiskBlocks(caps), false)
		want := map[uint64]uint64{}
		var s *Store
		res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			s = New(mt, d, caps)
			for _, p := range pairs {
				k, v := uint64(p[0])%caps, uint64(p[1])
				s.Put(mt, k, v)
				want[k] = v
			}
		})
		if res.Outcome != machine.Done {
			return false
		}
		m.CrashReset()
		okAll := true
		res = m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			s = Recover(mt, s)
			for k, v := range want {
				if g := s.Get(mt, k); !g.OK || g.V != v {
					okAll = false
				}
			}
		})
		return res.Outcome == machine.Done && okAll
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}
