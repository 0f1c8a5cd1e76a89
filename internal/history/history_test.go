package history

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/tsl"
)

// Register spec: a single durable cell with read/write ops. Crash loses
// nothing (like the replicated disk's crash transition in Figure 3).
type regState struct{ v int }

type opRead struct{}
type opWrite struct{ v int }

func regSpec() spec.Interface {
	return &spec.TSL[regState]{
		SpecName: "register",
		Initial:  regState{},
		OpTransition: func(op spec.Op) tsl.Transition[regState, spec.Ret] {
			switch o := op.(type) {
			case opRead:
				return tsl.Gets(func(s regState) spec.Ret { return s.v })
			case opWrite:
				return tsl.Bind(
					tsl.Modify(func(s regState) regState { return regState{v: o.v} }),
					func(struct{}) tsl.Transition[regState, spec.Ret] {
						return tsl.Ret[regState, spec.Ret](nil)
					})
			default:
				panic("unknown op")
			}
		},
	}
}

// volatileRegSpec is a register whose value resets to zero on crash.
func volatileRegSpec() spec.Interface {
	s := regSpec().(*spec.TSL[regState])
	s.SpecName = "volatile-register"
	s.CrashTransition = func(regState) []spec.State { return []spec.State{regState{}} }
	return s
}

// bufferedRegSpec is a register whose crash may keep its value or reset
// it to zero: a crash transition with two outcomes.
func bufferedRegSpec() spec.Interface {
	s := regSpec().(*spec.TSL[regState])
	s.SpecName = "buffered-register"
	s.CrashTransition = func(r regState) []spec.State { return []spec.State{regState{}, r} }
	return s
}

func TestSequentialWriteReadPasses(t *testing.T) {
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 5}},
		{Kind: Return, ID: 0, Op: opWrite{v: 5}, Ret: nil},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 5},
	}
	res := Check(regSpec(), h)
	if !res.OK {
		t.Fatalf("res=%+v", res)
	}
}

func TestStaleReadFails(t *testing.T) {
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 5}},
		{Kind: Return, ID: 0, Op: opWrite{v: 5}, Ret: nil},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 0}, // must be 5
	}
	res := Check(regSpec(), h)
	if res.OK {
		t.Fatal("stale read accepted")
	}
	if !strings.Contains(res.Reason, "no linearization") {
		t.Fatalf("reason=%q", res.Reason)
	}
}

func TestConcurrentOverlapAllowsEitherOrder(t *testing.T) {
	// write(7) overlaps read; read may see 0 or 7.
	for _, seen := range []int{0, 7} {
		h := History{
			{Kind: Invoke, ID: 0, Op: opWrite{v: 7}},
			{Kind: Invoke, ID: 1, Op: opRead{}},
			{Kind: Return, ID: 1, Op: opRead{}, Ret: seen},
			{Kind: Return, ID: 0, Op: opWrite{v: 7}, Ret: nil},
		}
		res := Check(regSpec(), h)
		if !res.OK {
			t.Fatalf("read=%d rejected: %+v", seen, res)
		}
	}
}

func TestNonOverlappingOrderIsEnforced(t *testing.T) {
	// read strictly after write(7) returning 3 is wrong.
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 7}},
		{Kind: Return, ID: 0, Op: opWrite{v: 7}, Ret: nil},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 3},
	}
	if Check(regSpec(), h).OK {
		t.Fatal("impossible read value accepted")
	}
}

func TestCrashHelpingAllowsPendingWriteToTakeEffect(t *testing.T) {
	// write(9) is pending at the crash; a post-recovery read sees 9.
	// Valid only if the write linearizes before the crash (helping).
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 9}},
		{Kind: Crash},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 9},
	}
	res := Check(regSpec(), h)
	if !res.OK {
		t.Fatalf("helping history rejected: %+v", res)
	}
}

func TestCrashAllowsPendingWriteToBeLost(t *testing.T) {
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 9}},
		{Kind: Crash},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 0},
	}
	res := Check(regSpec(), h)
	if !res.OK {
		t.Fatalf("dropped pending write rejected: %+v", res)
	}
}

func TestCompletedWriteMustSurviveCrash(t *testing.T) {
	// write returned before the crash; losing it is a durability bug.
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 9}},
		{Kind: Return, ID: 0, Op: opWrite{v: 9}, Ret: nil},
		{Kind: Crash},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 0},
	}
	if Check(regSpec(), h).OK {
		t.Fatal("lost completed write accepted by durable register spec")
	}
}

func TestVolatileSpecAllowsLossOfCompletedWrite(t *testing.T) {
	// Same history, but the spec's crash transition clears the state —
	// like group commit's specified loss window.
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 9}},
		{Kind: Return, ID: 0, Op: opWrite{v: 9}, Ret: nil},
		{Kind: Crash},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 0},
	}
	res := Check(volatileRegSpec(), h)
	if !res.OK {
		t.Fatalf("volatile spec rejected allowed loss: %+v", res)
	}
}

// TestCrashTriesEveryOutcome: a completed write followed by a crash
// may read back as either outcome the crash transition allows — the
// second outcome too, not just the first — and as nothing else.
func TestCrashTriesEveryOutcome(t *testing.T) {
	for seen, want := range map[int]bool{0: true, 9: true, 5: false} {
		h := History{
			{Kind: Invoke, ID: 0, Op: opWrite{v: 9}},
			{Kind: Return, ID: 0, Op: opWrite{v: 9}, Ret: nil},
			{Kind: Crash},
			{Kind: Invoke, ID: 1, Op: opRead{}},
			{Kind: Return, ID: 1, Op: opRead{}, Ret: seen},
		}
		if got := Check(bufferedRegSpec(), h).OK; got != want {
			t.Errorf("read %d after the crash: OK=%v, want %v", seen, got, want)
		}
		w, ok := Witness(bufferedRegSpec(), h)
		if ok != want {
			t.Fatalf("read %d after the crash: witness ok=%v, want %v", seen, ok, want)
		}
		for _, step := range w {
			if step.Kind == "crash-step" && step.StateKey != fmt.Sprintf("{%d}", seen) {
				t.Errorf("read %d after the crash: witness crash step %+v", seen, step)
			}
		}
	}
}

func TestOpKilledByCrashCannotLinearizeAfterIt(t *testing.T) {
	// write(9) dies at the crash; a read after recovery sees 0, then a
	// second read sees 9 with no intervening write: impossible.
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 9}},
		{Kind: Crash},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 0},
		{Kind: Invoke, ID: 2, Op: opRead{}},
		{Kind: Return, ID: 2, Op: opRead{}, Ret: 9},
	}
	if Check(regSpec(), h).OK {
		t.Fatal("zombie write after crash accepted")
	}
}

func TestMultipleCrashes(t *testing.T) {
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 1}},
		{Kind: Return, ID: 0, Op: opWrite{v: 1}, Ret: nil},
		{Kind: Crash},
		{Kind: Crash},
		{Kind: Invoke, ID: 1, Op: opRead{}},
		{Kind: Return, ID: 1, Op: opRead{}, Ret: 1},
	}
	if res := Check(regSpec(), h); !res.OK {
		t.Fatalf("double crash rejected: %+v", res)
	}
}

func TestUnreturnedOpAtEndOfHistoryIsFine(t *testing.T) {
	h := History{
		{Kind: Invoke, ID: 0, Op: opWrite{v: 1}},
	}
	if res := Check(regSpec(), h); !res.OK {
		t.Fatalf("open history rejected: %+v", res)
	}
}

func TestEmptyHistoryPasses(t *testing.T) {
	if res := Check(regSpec(), nil); !res.OK {
		t.Fatalf("empty history rejected: %+v", res)
	}
}

func TestMalformedReturnWithoutInvoke(t *testing.T) {
	h := History{{Kind: Return, ID: 0, Op: opRead{}, Ret: 0}}
	res := Check(regSpec(), h)
	if res.OK || !strings.Contains(res.Reason, "malformed") {
		t.Fatalf("res=%+v", res)
	}
}

func TestMalformedDoubleReturn(t *testing.T) {
	h := History{
		{Kind: Invoke, ID: 0, Op: opRead{}},
		{Kind: Return, ID: 0, Op: opRead{}, Ret: 0},
		{Kind: Return, ID: 0, Op: opRead{}, Ret: 0},
	}
	if Check(regSpec(), h).OK {
		t.Fatal("double return accepted")
	}
}

func TestMalformedReturnAcrossCrash(t *testing.T) {
	h := History{
		{Kind: Invoke, ID: 0, Op: opRead{}},
		{Kind: Crash},
		{Kind: Return, ID: 0, Op: opRead{}, Ret: 0},
	}
	res := Check(regSpec(), h)
	if res.OK || !strings.Contains(res.Reason, "crash killed") {
		t.Fatalf("res=%+v", res)
	}
}

func TestRecorderProducesWellFormedHistory(t *testing.T) {
	var r Recorder
	id0 := r.Invoke(opWrite{v: 2})
	id1 := r.Invoke(opRead{})
	r.Return(id1, 0)
	r.Return(id0, nil)
	r.Crash()
	h := r.History()
	if len(h) != 5 {
		t.Fatalf("len=%d", len(h))
	}
	if h[2].Op == nil {
		t.Fatal("Return event did not pick up its Op")
	}
	if res := Check(regSpec(), h); !res.OK {
		t.Fatalf("recorded history rejected: %+v", res)
	}
	r.Reset()
	if len(r.History()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

// specWithUB marks reads as undefined when the register is negative,
// to exercise vacuous acceptance.
func specWithUB() spec.Interface {
	return &spec.TSL[regState]{
		SpecName: "ub-register",
		Initial:  regState{v: -1},
		OpTransition: func(op spec.Op) tsl.Transition[regState, spec.Ret] {
			switch op.(type) {
			case opRead:
				return tsl.If(func(s regState) bool { return s.v < 0 },
					tsl.Undefined[regState, spec.Ret](),
					tsl.Gets(func(s regState) spec.Ret { return s.v }))
			default:
				panic("unknown op")
			}
		},
	}
}

func TestUBIsVacuouslyAccepted(t *testing.T) {
	h := History{
		{Kind: Invoke, ID: 0, Op: opRead{}},
		{Kind: Return, ID: 0, Op: opRead{}, Ret: 424242}, // any nonsense
	}
	res := Check(specWithUB(), h)
	if !res.OK || !res.UB {
		t.Fatalf("UB history not vacuously accepted: %+v", res)
	}
}

// Reference checker: brute-force enumeration of all linearization
// orders over map-based sets, no memoization, sharing nothing with the
// production checker — used to cross-check it on small histories.
type refOp struct {
	invoke, ret, dies int
	retVal            spec.Ret
	op                spec.Op
}

// refIndex is the map-based index (and well-formedness check) the
// production checker used before it moved to an OpID-ordered slice.
func refIndex(h History) (map[OpID]*refOp, error) {
	ops := map[OpID]*refOp{}
	lastCrash := -1
	for i, e := range h {
		switch e.Kind {
		case Invoke:
			if _, dup := ops[e.ID]; dup {
				return nil, fmt.Errorf("op %d invoked twice", e.ID)
			}
			ops[e.ID] = &refOp{invoke: i, ret: -1, op: e.Op, dies: len(h)}
		case Return:
			info, ok := ops[e.ID]
			if !ok {
				return nil, fmt.Errorf("op %d returns without invocation", e.ID)
			}
			if info.ret != -1 {
				return nil, fmt.Errorf("op %d returns twice", e.ID)
			}
			if lastCrash > info.invoke {
				return nil, fmt.Errorf("op %d returns after a crash killed it", e.ID)
			}
			info.ret, info.retVal = i, e.Ret
		case Crash:
			lastCrash = i
			for _, info := range ops {
				if info.ret == -1 && info.dies == len(h) {
					info.dies = i
				}
			}
		}
	}
	return ops, nil
}

// linearizable lists, in OpID order, the ops that may take their atomic
// effect at position i.
func linearizable(ops map[OpID]*refOp, i int, lin map[OpID]bool) []OpID {
	var out []OpID
	for id, info := range ops {
		if lin[id] || info.invoke >= i || (info.ret != -1 && info.ret < i) || info.dies < i {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func copyWith(lin map[OpID]bool, id OpID) map[OpID]bool {
	out := make(map[OpID]bool, len(lin)+1)
	for k := range lin {
		out[k] = true
	}
	out[id] = true
	return out
}

func copyWithout(lin map[OpID]bool, id OpID) map[OpID]bool {
	out := make(map[OpID]bool, len(lin))
	for k := range lin {
		if k != id {
			out[k] = true
		}
	}
	return out
}

func referenceCheck(sp spec.Interface, h History) bool {
	ops, err := refIndex(h)
	if err != nil {
		return false
	}
	var rec func(i int, st spec.State, lin map[OpID]bool) bool
	rec = func(i int, st spec.State, lin map[OpID]bool) bool {
		if i == len(h) {
			return true
		}
		e := h[i]
		switch e.Kind {
		case Invoke:
			if rec(i+1, st, lin) {
				return true
			}
		case Return:
			if lin[e.ID] && rec(i+1, st, copyWithout(lin, e.ID)) {
				return true
			}
		case Crash:
			for _, next := range sp.Crash(st) {
				if rec(i+1, next, map[OpID]bool{}) {
					return true
				}
			}
		}
		for _, id := range linearizable(ops, i, lin) {
			info := ops[id]
			ret := info.retVal
			if info.ret == -1 {
				ret = spec.Pending
			}
			nexts, ub := sp.Step(st, info.op, ret)
			if ub {
				return true
			}
			for _, ns := range nexts {
				if rec(i, ns, copyWith(lin, id)) {
					return true
				}
			}
		}
		return false
	}
	return rec(0, sp.Init(), map[OpID]bool{})
}

// genHistory generates a pseudo-random well-formed history of n events
// over the register alphabet; crashPct is the share of crash events.
// IDs are handed out from firstID, and stepped by idStep, so that
// sparse and unordered-looking ID spaces are covered too.
func genHistory(seed, n, crashPct int, firstID, idStep OpID) History {
	var h History
	nextID := firstID
	open := []OpID{}
	opOf := map[OpID]spec.Op{}
	rnd := seed
	rand := func(n int) int {
		rnd = rnd*1103515245 + 12345
		if rnd < 0 {
			rnd = -rnd
		}
		return rnd % n
	}
	for i := 0; i < n; i++ {
		if rand(100) < crashPct {
			h = append(h, Event{Kind: Crash})
			open = nil
			continue
		}
		switch rand(3) {
		case 0: // invoke write
			op := opWrite{v: rand(3)}
			h = append(h, Event{Kind: Invoke, ID: nextID, Op: op})
			opOf[nextID] = op
			open = append(open, nextID)
			nextID += idStep
		case 1: // invoke read
			op := opRead{}
			h = append(h, Event{Kind: Invoke, ID: nextID, Op: op})
			opOf[nextID] = op
			open = append(open, nextID)
			nextID += idStep
		case 2: // return some open op with a random-ish value
			if len(open) == 0 {
				continue
			}
			k := rand(len(open))
			id := open[k]
			open = append(open[:k], open[k+1:]...)
			var ret spec.Ret
			if _, isRead := opOf[id].(opRead); isRead {
				ret = rand(3)
			}
			h = append(h, Event{Kind: Return, ID: id, Op: opOf[id], Ret: ret})
		}
	}
	return h
}

// pendingAtCrash is the largest number of unreturned ops any crash of h
// cuts off.
func pendingAtCrash(h History) int {
	open, most := map[OpID]bool{}, 0
	for _, e := range h {
		switch e.Kind {
		case Invoke:
			open[e.ID] = true
		case Return:
			delete(open, e.ID)
		case Crash:
			most = max(most, len(open))
			open = map[OpID]bool{}
		}
	}
	return most
}

// TestQuickAgainstReference generates random small histories — with
// crashes, and with several ops pending at a crash — and checks the
// memoized bitset DFS agrees with the brute-force reference.
func TestQuickAgainstReference(t *testing.T) {
	crashes, multiPending := 0, 0
	for seed := 1; seed <= 400; seed++ {
		for _, g := range []struct {
			n, crashPct int
			first, step OpID
		}{
			{8, 25, 0, 1},   // the original shape
			{10, 15, 7, 3},  // sparse IDs
			{9, 12, 40, -1}, // IDs descending in invocation order
		} {
			h := genHistory(seed, g.n, g.crashPct, g.first, g.step)
			got := Check(regSpec(), h).OK
			want := referenceCheck(regSpec(), h)
			if got != want {
				t.Fatalf("seed %d %+v: Check=%v reference=%v\n%s", seed, g, got, want, h.Format())
			}
			if _, ok := Witness(regSpec(), h); ok != want {
				t.Fatalf("seed %d %+v: Witness ok=%v, reference=%v\n%s", seed, g, ok, want, h.Format())
			}
			if p := pendingAtCrash(h); p >= 2 {
				multiPending++
			}
			for _, e := range h {
				if e.Kind == Crash {
					crashes++
					break
				}
			}
		}
	}
	if crashes < 200 || multiPending < 50 {
		t.Fatalf("generator too tame: %d histories with a crash, %d with >=2 ops pending at one", crashes, multiPending)
	}
}

// TestLongHistoryPast64Ops: the linearized set is a bitset of as many
// words as the history needs. 70 sequential write/read pairs (140 ops,
// three words) with two ops left pending at a crash in the middle must
// check, and one stale read at the far end — past bit 64 — must fail.
func TestLongHistoryPast64Ops(t *testing.T) {
	build := func(lastRead int) History {
		var h History
		id := OpID(0)
		call := func(op spec.Op, ret spec.Ret) {
			h = append(h, Event{Kind: Invoke, ID: id, Op: op}, Event{Kind: Return, ID: id, Op: op, Ret: ret})
			id++
		}
		for i := 0; i < 70; i++ {
			if i == 35 {
				// Two writes in flight at a crash: the read after it
				// decides which (if either) took effect.
				h = append(h, Event{Kind: Invoke, ID: id, Op: opWrite{v: 1001}}, Event{Kind: Invoke, ID: id + 1, Op: opWrite{v: 1002}}, Event{Kind: Crash})
				id += 2
				call(opRead{}, 1002)
			}
			call(opWrite{v: i}, nil)
			call(opRead{}, i)
		}
		h[len(h)-1].Ret = lastRead
		return h
	}
	good := build(69)
	if len(good) <= 2*64 {
		t.Fatalf("history has only %d events", len(good))
	}
	if res := Check(regSpec(), good); !res.OK {
		t.Fatalf("long history rejected: %s", res.Reason)
	}
	if !referenceCheck(regSpec(), good) {
		t.Fatal("reference rejects the long history")
	}
	if _, ok := Witness(regSpec(), good); !ok {
		t.Fatal("no witness for the long history")
	}
	bad := build(68)
	if Check(regSpec(), bad).OK || referenceCheck(regSpec(), bad) {
		t.Fatal("stale read past op 64 accepted")
	}
	// Concurrency past the first word: ops 64.. all overlapping.
	var wide History
	for i := 0; i < 64; i++ {
		wide = append(wide, Event{Kind: Invoke, ID: OpID(i), Op: opWrite{v: i}}, Event{Kind: Return, ID: OpID(i), Op: opWrite{v: i}})
	}
	for i := 64; i < 70; i++ {
		wide = append(wide, Event{Kind: Invoke, ID: OpID(i), Op: opWrite{v: i}})
	}
	wide = append(wide, Event{Kind: Invoke, ID: 70, Op: opRead{}}, Event{Kind: Return, ID: 70, Op: opRead{}, Ret: 66})
	for i := 64; i < 70; i++ {
		wide = append(wide, Event{Kind: Return, ID: OpID(i), Op: opWrite{v: i}})
	}
	if got, want := Check(regSpec(), wide).OK, referenceCheck(regSpec(), wide); !got || !want {
		t.Fatalf("overlap past op 64: Check=%v reference=%v", got, want)
	}
	wide[len(wide)-7].Ret = 5 // a value none of the overlapping writes wrote
	if got, want := Check(regSpec(), wide).OK, referenceCheck(regSpec(), wide); got || want {
		t.Fatalf("stale read under overlap past op 64: Check=%v reference=%v", got, want)
	}
}

// typicalHistory is the shape a search execution records: three writes
// overlapping a read, a crash, and a read after it that sees the last.
func typicalHistory() History {
	var h History
	for i := 0; i < 3; i++ {
		h = append(h, Event{Kind: Invoke, ID: OpID(i), Op: opWrite{v: i + 1}})
	}
	h = append(h, Event{Kind: Invoke, ID: 3, Op: opRead{}}, Event{Kind: Return, ID: 3, Op: opRead{}, Ret: 0})
	for i := 0; i < 3; i++ {
		h = append(h, Event{Kind: Return, ID: OpID(i), Op: opWrite{v: i + 1}})
	}
	return append(h, Event{Kind: Crash},
		Event{Kind: Invoke, ID: 4, Op: opRead{}}, Event{Kind: Return, ID: 4, Op: opRead{}, Ret: 3})
}

// flatReg is the register spec (values 0–3) with nothing of its own to
// allocate: boxed small ints, static keys, preallocated successor
// lists. What a check against it allocates is the Checker's.
type flatReg struct{}

var (
	flatKeys = [4]string{"0", "1", "2", "3"}
	flatNext = [4][]spec.State{{0}, {1}, {2}, {3}}
)

func (flatReg) Name() string                    { return "flat-register" }
func (flatReg) Init() spec.State                { return 0 }
func (flatReg) Crash(s spec.State) []spec.State { return flatNext[s.(int)] }
func (flatReg) Key(s spec.State) string         { return flatKeys[s.(int)] }
func (flatReg) Step(s spec.State, op spec.Op, ret spec.Ret) ([]spec.State, bool) {
	switch o := op.(type) {
	case opWrite:
		return flatNext[o.v], false
	default:
		if ret == spec.Pending || ret == s {
			return flatNext[s.(int)], false
		}
		return nil, false
	}
}

// TestCheckerReuseAllocs: a Checker keeps its buffers from one check to
// the next, so checking the typical history again on a reused Checker
// allocates nothing but the memo entries of its 31 search nodes: 28
// objects (measured; under -race too), against 44 for a one-shot Check.
func TestCheckerReuseAllocs(t *testing.T) {
	h := typicalHistory()
	var c Checker
	res := c.Check(flatReg{}, h, Options{})
	if !res.OK || Check(regSpec(), h).OK != res.OK {
		t.Fatalf("typical history: %+v", res)
	}
	reused := testing.AllocsPerRun(100, func() { c.Check(flatReg{}, h, Options{}) })
	oneShot := testing.AllocsPerRun(100, func() { Check(flatReg{}, h) })
	t.Logf("checking the typical history (%d search nodes): %.0f objects on a reused Checker, %.0f one-shot",
		res.StatesExplored, reused, oneShot)
	if reused > 28 || reused > float64(res.StatesExplored) {
		t.Fatalf("a reused Checker allocates %.0f objects for %d search nodes (budget 28)", reused, res.StatesExplored)
	}
}

// TestCheckerReuseKeepsVerdicts: one Checker taken through the random
// histories of TestQuickAgainstReference, in turn and with and without
// memoization, gives every verdict a fresh one gives.
func TestCheckerReuseKeepsVerdicts(t *testing.T) {
	var c Checker
	for seed := 1; seed <= 300; seed++ {
		h := genHistory(seed, 10, 20, 0, 1)
		opts := Options{DisableMemo: seed%3 == 0}
		got, want := c.Check(regSpec(), h, opts), CheckWith(regSpec(), h, opts)
		if got != want {
			t.Fatalf("seed %d: reused %+v, fresh %+v\n%s", seed, got, want, h.Format())
		}
	}
}

// TestQuickMemoDoesNotChangeVerdicts: memoization is a pure
// optimization — on random histories the memoized and unmemoized
// checkers must agree.
func TestQuickMemoDoesNotChangeVerdicts(t *testing.T) {
	for seed := 1; seed <= 300; seed++ {
		h := genHistory(seed*31+7, 10, 25, 0, 1)
		a := CheckWith(regSpec(), h, Options{})
		b := CheckWith(regSpec(), h, Options{DisableMemo: true})
		if a.OK != b.OK {
			t.Fatalf("seed %d: memo=%v nomemo=%v\n%s", seed, a.OK, b.OK, h.Format())
		}
	}
}
