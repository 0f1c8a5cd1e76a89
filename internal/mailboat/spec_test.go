package mailboat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/tsl"
)

// refState is the map-based State the spec had before it became a
// persistent value: every step cloned every mailbox, and every key
// re-sorted and re-quoted them all. It is the reference the persistent
// State is held to.
type refState struct{ boxes []map[string]string }

func newRefState(users uint64) refState {
	s := refState{boxes: make([]map[string]string, users)}
	for i := range s.boxes {
		s.boxes[i] = map[string]string{}
	}
	return s
}

func (s refState) clone() refState {
	out := refState{boxes: make([]map[string]string, len(s.boxes))}
	for i, b := range s.boxes {
		nb := make(map[string]string, len(b))
		for k, v := range b {
			nb[k] = v
		}
		out.boxes[i] = nb
	}
	return out
}

func (s refState) messagesOf(user uint64) []Message {
	b := s.boxes[user]
	out := make([]Message, 0, len(b))
	for id, c := range b {
		out = append(out, Message{ID: id, Contents: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s refState) key() string {
	var b []byte
	var ids []string
	for u, box := range s.boxes {
		ids = ids[:0]
		for id := range box {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		b = append(b, 'u')
		b = strconv.AppendInt(b, int64(u), 10)
		b = append(b, '{')
		for _, id := range ids {
			b = append(b, id...)
			b = append(b, '=')
			b = strconv.AppendQuote(b, box[id])
			b = append(b, ',')
		}
		b = append(b, '}')
	}
	return string(b)
}

// refStep is the reference's transition for op.
func refStep(cfg Config, s refState, op spec.Op) tsl.Result[refState, spec.Ret] {
	type result = tsl.Result[refState, spec.Ret]
	type outcome = tsl.Outcome[refState, spec.Ret]
	switch o := op.(type) {
	case OpDeliver:
		if o.User >= uint64(len(s.boxes)) {
			return result{UB: true}
		}
		var out result
		for i := uint64(0); i < cfg.RandBound; i++ {
			id := MsgName(i)
			if _, taken := s.boxes[o.User][id]; taken {
				continue
			}
			n := s.clone()
			n.boxes[o.User][id] = o.Msg
			out.Outcomes = append(out.Outcomes, outcome{State: n, Val: true})
		}
		out.Outcomes = append(out.Outcomes, outcome{State: s, Val: false})
		return out
	case OpPickup:
		if o.User >= uint64(len(s.boxes)) {
			return result{UB: true}
		}
		return result{Outcomes: []outcome{{State: s, Val: s.messagesOf(o.User)}}}
	case OpDelete:
		if o.User >= uint64(len(s.boxes)) {
			return result{UB: true}
		}
		if _, ok := s.boxes[o.User][o.ID]; !ok {
			return result{UB: true}
		}
		n := s.clone()
		delete(n.boxes[o.User], o.ID)
		return result{Outcomes: []outcome{{State: n, Val: true}, {State: s, Val: false}}}
	}
	panic(fmt.Sprintf("no reference step for %T", op))
}

// pairs renders a step's outcomes as a sorted list of (Key, Val) pairs;
// %#v tells a nil message list from an empty one.
func pairs[S any](r tsl.Result[S, spec.Ret], key func(S) string) []string {
	var out []string
	for _, o := range r.Outcomes {
		out = append(out, fmt.Sprintf("%s %#v", key(o.State), o.Val))
	}
	slices.Sort(out)
	return out
}

// snapshot is everything a reader can see of s: its key, cached and
// rendered afresh, and every Lookup and Count.
func snapshot(s State, cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|", s.Key(), s.r.render())
	for u := uint64(0); u < cfg.Users; u++ {
		fmt.Fprintf(&b, "%d:", s.Count(u))
		for i := uint64(0); i < cfg.RandBound; i++ {
			c, ok := s.Lookup(u, MsgName(i))
			fmt.Fprintf(&b, "%v%q,", ok, c)
		}
	}
	return b.String()
}

// bodies includes what strconv.Quote escapes, so keys are compared on
// more than the fast path.
var bodies = []string{"a", "b", "", `say "hi"`, `back\slash`, "line\nbreak", "é", "\x00"}

// walkAgainstReference drives a random sequence of steps through sp and
// the reference side by side and reports the first difference: in the
// (Key, Val) pairs of a step, in the states a return value admits, or in
// anything a reader can see of a state after a step from it.
func walkAgainstReference(sp *spec.TSL[State], cfg Config, rng *rand.Rand, steps int) error {
	s, ref := sp.Init().(State), newRefState(cfg.Users)
	type seen struct {
		s    State
		snap string
	}
	var visited []seen
	for i := 0; i < steps; i++ {
		user := uint64(rng.Intn(int(cfg.Users) + 1)) // one past the end is UB
		var op spec.Op
		switch rng.Intn(3) {
		case 0:
			op = OpDeliver{User: user, Msg: bodies[rng.Intn(len(bodies))]}
		case 1:
			op = OpDelete{User: user, ID: MsgName(uint64(rng.Intn(int(cfg.RandBound) + 1)))}
		default:
			op = OpPickup{User: user}
		}
		before := snapshot(s, cfg)
		visited = append(visited, seen{s, before})
		got, want := sp.OpTransition(op)(s), refStep(cfg, ref, op)
		if after := snapshot(s, cfg); after != before {
			return fmt.Errorf("step %d, %v changed its pre-state:\nbefore %s\nafter  %s", i, op, before, after)
		}
		if got.UB != want.UB {
			return fmt.Errorf("step %d, %v in %s: UB %v, reference %v", i, op, ref.key(), got.UB, want.UB)
		}
		if g, w := pairs(got, State.Key), pairs(want, refState.key); !slices.Equal(g, w) {
			return fmt.Errorf("step %d, %v in %s:\noutcomes  %q\nreference %q", i, op, ref.key(), g, w)
		}
		if got.UB {
			continue
		}

		rets := []spec.Ret{true, false, spec.Pending}
		if p, ok := op.(OpPickup); ok {
			rets = append(rets, ref.messagesOf(p.User))
		}
		ret := rets[rng.Intn(len(rets))]
		nexts, _ := sp.Step(s, op, ret)
		wantNext := map[string]refState{}
		for _, o := range want.Outcomes {
			if ret == spec.Pending || reflect.DeepEqual(o.Val, ret) {
				wantNext[o.State.key()] = o.State
			}
		}
		if len(nexts) != len(wantNext) {
			return fmt.Errorf("step %d, %v returning %v: %d next states, reference %d", i, op, ret, len(nexts), len(wantNext))
		}
		if len(nexts) == 0 {
			continue
		}
		s = nexts[rng.Intn(len(nexts))].(State)
		r, ok := wantNext[s.Key()]
		if !ok {
			return fmt.Errorf("step %d, %v returning %v: next state %s is not the reference's", i, op, ret, s.Key())
		}
		ref = r
	}
	for i, v := range visited {
		if now := snapshot(v.s, cfg); now != v.snap {
			return fmt.Errorf("the state before step %d changed later:\nthen %s\nnow  %s", i, v.snap, now)
		}
	}
	return nil
}

// TestStateMatchesReference: on random deliver, delete and pickup
// sequences, with every kind of return, the persistent State steps
// exactly as the map-based reference does, byte-identical keys
// included, and no step changes anything a reader can see of a state
// it stepped from — then or later.
func TestStateMatchesReference(t *testing.T) {
	for users := uint64(1); users <= 3; users++ {
		for bound := uint64(1); bound <= 4; bound++ {
			cfg := Config{Users: users, RandBound: bound}
			sp := Spec(cfg).(*spec.TSL[State])
			rng := rand.New(rand.NewSource(int64(10*users + bound)))
			for walk := 0; walk < 30; walk++ {
				if err := walkAgainstReference(sp, cfg, rng, 60); err != nil {
					t.Fatalf("Users %d, RandBound %d, walk %d: %v", users, bound, walk, err)
				}
			}
		}
	}
}

// insertInPlace is insert with the bug persistence rules out: it makes
// room in the messages array the pre-state still holds, spilling the
// last message into the copy.
func (b mailbox) insertInPlace(at int, m Message) mailbox {
	if at == len(b.msgs) {
		return b.insert(at, m)
	}
	last := b.msgs[len(b.msgs)-1]
	copy(b.msgs[at+1:], b.msgs[at:])
	b.msgs[at] = m
	return newMailbox(append(slices.Clone(b.msgs), last))
}

// TestStateOracleCatchesInPlaceInsert is the negative control: a
// Deliver whose post-states are right but whose insert writes into the
// mailbox its pre-state shares fails the oracle.
func TestStateOracleCatchesInPlaceInsert(t *testing.T) {
	cfg := Config{Users: 2, RandBound: 3}
	sp := Spec(cfg).(*spec.TSL[State])
	good := sp.OpTransition
	sp.OpTransition = func(op spec.Op) tsl.Transition[State, spec.Ret] {
		o, ok := op.(OpDeliver)
		if !ok {
			return good(op)
		}
		return func(s State) tsl.Result[State, spec.Ret] {
			if !s.has(o.User) {
				return tsl.Result[State, spec.Ret]{UB: true}
			}
			var out tsl.Result[State, spec.Ret]
			for i := uint64(0); i < cfg.RandBound; i++ {
				box := s.r.boxes[o.User]
				id := MsgName(i)
				if at, taken := box.find(id); !taken {
					n := s.with(o.User, box.insertInPlace(at, Message{ID: id, Contents: o.Msg}))
					out.Outcomes = append(out.Outcomes, tsl.Outcome[State, spec.Ret]{State: n, Val: true})
				}
			}
			out.Outcomes = append(out.Outcomes, tsl.Outcome[State, spec.Ret]{State: s, Val: false})
			return out
		}
	}
	rng := rand.New(rand.NewSource(1))
	for walk := 0; walk < 30; walk++ {
		if err := walkAgainstReference(sp, cfg, rng, 60); err != nil {
			if !strings.Contains(err.Error(), "pre-state") {
				t.Fatalf("caught, but not as a changed pre-state: %v", err)
			}
			return
		}
	}
	t.Fatal("an insert that writes into the shared mailbox passed the oracle")
}

// TestDeliverStepAllocs: a Deliver step copies the mailbox it changes
// and shares the rest, so what it allocates does not depend on how full
// another user's mailbox is.
func TestDeliverStepAllocs(t *testing.T) {
	cfg := Config{Users: 2, RandBound: 50}
	sp := Spec(cfg)
	empty := sp.Init()
	full := empty
	for i := 0; i < 50; i++ {
		next, _ := sp.Step(full, OpDeliver{User: 1, Msg: "filler"}, true)
		full = next[0]
	}
	if n := full.(State).Count(1); n != 50 {
		t.Fatalf("user 1 holds %d messages", n)
	}
	deliver := OpDeliver{User: 0, Msg: "m"}
	allocs := func(s spec.State) float64 {
		return testing.AllocsPerRun(100, func() { sp.Step(s, deliver, true) })
	}
	a0, a50 := allocs(empty), allocs(full)
	if a0 != a50 {
		t.Fatalf("a deliver step allocates %.0f objects beside an empty mailbox, %.0f beside one of 50 messages", a0, a50)
	}
	t.Logf("a deliver step with %d outcomes allocates %.0f objects, whatever the other mailbox holds", cfg.RandBound, a0)
}
