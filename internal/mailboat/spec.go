package mailboat

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/spec"
	"repro/internal/tsl"
)

// State is the abstract state of §8.1: a set of user mailboxes, each a
// mapping from message IDs to contents.
type State struct {
	Boxes []map[string]string
}

// NewState returns an empty abstract state for users mailboxes.
func NewState(users uint64) State {
	s := State{Boxes: make([]map[string]string, users)}
	for i := range s.Boxes {
		s.Boxes[i] = map[string]string{}
	}
	return s
}

func (s State) clone() State {
	out := State{Boxes: make([]map[string]string, len(s.Boxes))}
	for i, b := range s.Boxes {
		nb := make(map[string]string, len(b))
		for k, v := range b {
			nb[k] = v
		}
		out.Boxes[i] = nb
	}
	return out
}

// MessagesOf returns user's mailbox as a sorted message list — the
// value the spec's Pickup returns.
func (s State) MessagesOf(user uint64) []Message {
	b := s.Boxes[user]
	out := make([]Message, 0, len(b))
	for id, c := range b {
		out = append(out, Message{ID: id, Contents: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Key renders the state canonically.
func (s State) Key() string {
	var b []byte
	var ids []string
	for u, box := range s.Boxes {
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

// OpDeliver is Deliver(user, msg): either insert msg under some fresh
// ID and return true, or fail transiently (store fault, retries
// exhausted) leaving the mailbox untouched and return false. The
// failure outcome is what makes graceful degradation checkable: an
// implementation may refuse a delivery, but only by reporting it.
// Returning true without inserting (a silent drop) or false after
// inserting (a spurious failure whose message later appears) both fail
// refinement.
type OpDeliver struct {
	User uint64
	Msg  string
}

func (o OpDeliver) String() string { return fmt.Sprintf("Deliver(%d, %q)", o.User, o.Msg) }

// OpPickup is Pickup(user): return the whole mailbox (and take the
// user's lock, which the spec does not model — serialization is the
// implementation's concern).
type OpPickup struct{ User uint64 }

func (o OpPickup) String() string { return fmt.Sprintf("Pickup(%d)", o.User) }

// OpDelete is Delete(user, id): either remove the message and return
// true, or fail transiently leaving it in place and return false.
// Calling it with an ID that is not in the mailbox is outside the spec
// (undefined behaviour), per §8.1's assumption that users only delete
// IDs returned by Pickup.
type OpDelete struct {
	User uint64
	ID   string
}

func (o OpDelete) String() string { return fmt.Sprintf("Delete(%d, %s)", o.User, o.ID) }

// OpUnlock is Unlock(user): no spec-level effect.
type OpUnlock struct{ User uint64 }

func (o OpUnlock) String() string { return fmt.Sprintf("Unlock(%d)", o.User) }

// Spec builds the mail-server specification for cfg. Message IDs are
// drawn from the finite universe MsgName(0..RandBound), matching the
// implementation's name-allocation domain, which keeps Deliver's
// nondeterministic ID choice enumerable for the checker. The crash
// transition is the identity: delivered mail is never lost (§8's
// durability guarantee).
func Spec(cfg Config) spec.Interface {
	return &spec.TSL[State]{
		SpecName: "mailboat",
		Initial:  NewState(cfg.Users),
		OpTransition: func(op spec.Op) tsl.Transition[State, spec.Ret] {
			switch o := op.(type) {
			case OpDeliver:
				return deliverT(cfg, o)
			case OpPickup:
				return pickupT(o)
			case OpDelete:
				return deleteT(o)
			case OpUnlock:
				return tsl.Ret[State, spec.Ret](nil)
			default:
				panic(fmt.Sprintf("mailboat: unknown op %T", op))
			}
		},
		KeyOf: func(s State) string { return s.Key() },
	}
}

func deliverT(cfg Config, o OpDeliver) tsl.Transition[State, spec.Ret] {
	return func(s State) tsl.Result[State, spec.Ret] {
		if o.User >= uint64(len(s.Boxes)) {
			return tsl.Result[State, spec.Ret]{UB: true}
		}
		var out tsl.Result[State, spec.Ret]
		for i := uint64(0); i < cfg.RandBound; i++ {
			id := MsgName(i)
			if _, taken := s.Boxes[o.User][id]; taken {
				continue
			}
			n := s.clone()
			n.Boxes[o.User][id] = o.Msg
			out.Outcomes = append(out.Outcomes, tsl.Outcome[State, spec.Ret]{State: n, Val: true})
		}
		// Transient failure: always allowed, never changes the state.
		out.Outcomes = append(out.Outcomes, tsl.Outcome[State, spec.Ret]{State: s, Val: false})
		return out
	}
}

func pickupT(o OpPickup) tsl.Transition[State, spec.Ret] {
	return func(s State) tsl.Result[State, spec.Ret] {
		if o.User >= uint64(len(s.Boxes)) {
			return tsl.Result[State, spec.Ret]{UB: true}
		}
		return tsl.Result[State, spec.Ret]{Outcomes: []tsl.Outcome[State, spec.Ret]{
			{State: s, Val: s.MessagesOf(o.User)},
		}}
	}
}

func deleteT(o OpDelete) tsl.Transition[State, spec.Ret] {
	return func(s State) tsl.Result[State, spec.Ret] {
		if o.User >= uint64(len(s.Boxes)) {
			return tsl.Result[State, spec.Ret]{UB: true}
		}
		if _, ok := s.Boxes[o.User][o.ID]; !ok {
			// Deleting an unlisted ID is outside the spec (§8.1).
			return tsl.Result[State, spec.Ret]{UB: true}
		}
		n := s.clone()
		delete(n.Boxes[o.User], o.ID)
		return tsl.Result[State, spec.Ret]{Outcomes: []tsl.Outcome[State, spec.Ret]{
			{State: n, Val: true},
			// Transient failure: the message stays.
			{State: s, Val: false},
		}}
	}
}
