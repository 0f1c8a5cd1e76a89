package mailboat

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/spec"
	"repro/internal/tsl"
)

// State is the abstract state of §8.1: a set of user mailboxes, each a
// mapping from message IDs to contents.
//
// A State is a persistent value: a step builds its post-state from a
// copy of the pre-state's mailbox headers in which only the mailbox it
// changes is new, so every other mailbox — its messages and its rendered
// key fragment — is shared with the pre-state. Nothing reachable from a
// State is written after the step that made it, except that state's own
// key, rendered once when first asked for. NewState's states, which
// every search starting from Spec(cfg).Init shares, are built with their
// key and never written.
type State struct{ r *stateRep }

type stateRep struct {
	boxes []mailbox
	key   string
	keyed bool
}

// mailbox is one user's messages sorted by ID, never nil (an empty
// mailbox is a non-nil empty slice, which is what Pickup returns for
// it), and frag, its part of the state key: `id="contents",` for each
// message.
type mailbox struct {
	msgs []Message
	frag string
}

// emptyKeys is the key of up to ten empty mailboxes: the key NewState's
// states are built with, so that building one renders nothing.
const emptyKeys = "u0{}u1{}u2{}u3{}u4{}u5{}u6{}u7{}u8{}u9{}"

// NewState returns an empty abstract state for users mailboxes.
func NewState(users uint64) State {
	r := &stateRep{boxes: make([]mailbox, users), keyed: true}
	for i := range r.boxes {
		r.boxes[i].msgs = []Message{}
	}
	if users <= 10 {
		r.key = emptyKeys[:4*users]
	} else {
		r.key = r.render()
	}
	return State{r}
}

// with returns s with user's mailbox replaced by b.
func (s State) with(user uint64, b mailbox) State {
	boxes := slices.Clone(s.r.boxes)
	boxes[user] = b
	return State{&stateRep{boxes: boxes}}
}

func (s State) has(user uint64) bool { return user < uint64(len(s.r.boxes)) }

// find returns where id is, or would be inserted, in b.
func (b mailbox) find(id string) (int, bool) {
	return slices.BinarySearchFunc(b.msgs, id, func(m Message, id string) int { return strings.Compare(m.ID, id) })
}

// newMailbox renders msgs' key fragment; msgs is the new mailbox's own.
func newMailbox(msgs []Message) mailbox {
	n := 0
	for _, m := range msgs {
		n += len(m.ID) + len(m.Contents) + 4
	}
	var f strings.Builder
	f.Grow(n)
	for _, m := range msgs {
		f.WriteString(m.ID)
		f.WriteByte('=')
		writeQuoted(&f, m.Contents)
		f.WriteByte(',')
	}
	return mailbox{msgs: msgs, frag: f.String()}
}

// writeQuoted writes strconv.Quote(s) to f. Printable ASCII other than
// a quote or a backslash is what Quote leaves as it is, so such an s —
// every message body a scenario delivers — is written without Quote's
// allocation.
func writeQuoted(f *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			f.WriteString(strconv.Quote(s))
			return
		}
	}
	f.WriteByte('"')
	f.WriteString(s)
	f.WriteByte('"')
}

// insert returns b with m at position at.
func (b mailbox) insert(at int, m Message) mailbox {
	msgs := make([]Message, 0, len(b.msgs)+1)
	msgs = append(append(append(msgs, b.msgs[:at]...), m), b.msgs[at:]...)
	return newMailbox(msgs)
}

// remove returns b without the message at position at.
func (b mailbox) remove(at int) mailbox {
	msgs := make([]Message, 0, len(b.msgs)-1)
	msgs = append(append(msgs, b.msgs[:at]...), b.msgs[at+1:]...)
	return newMailbox(msgs)
}

// Lookup returns the contents of message id in user's mailbox.
func (s State) Lookup(user uint64, id string) (string, bool) {
	b := s.r.boxes[user]
	if at, ok := b.find(id); ok {
		return b.msgs[at].Contents, true
	}
	return "", false
}

// Count returns the number of messages in user's mailbox.
func (s State) Count(user uint64) int { return len(s.r.boxes[user].msgs) }

// MessagesOf returns user's mailbox as a sorted message list — the
// value the spec's Pickup returns. It is the state's own slice: callers
// must not modify it.
func (s State) MessagesOf(user uint64) []Message { return s.r.boxes[user].msgs }

// Key renders the state canonically: `u<user>{` + the mailbox's
// fragment + `}` for each user.
func (s State) Key() string {
	if !s.r.keyed {
		s.r.key, s.r.keyed = s.r.render(), true
	}
	return s.r.key
}

// String is Key, so that a list of states prints as their keys.
func (s State) String() string { return s.Key() }

func (r *stateRep) render() string {
	n := 0
	for _, b := range r.boxes {
		n += len(b.frag) + 8
	}
	var k strings.Builder
	k.Grow(n)
	for u, b := range r.boxes {
		k.WriteByte('u')
		k.WriteString(strconv.Itoa(u))
		k.WriteByte('{')
		k.WriteString(b.frag)
		k.WriteByte('}')
	}
	return k.String()
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
				return deliverT(cfg.RandBound, o)
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
		KeyOf: State.Key,
	}
}

func deliverT(bound uint64, o OpDeliver) tsl.Transition[State, spec.Ret] {
	return func(s State) tsl.Result[State, spec.Ret] {
		if !s.has(o.User) {
			return tsl.Result[State, spec.Ret]{UB: true}
		}
		box := s.r.boxes[o.User]
		out := tsl.Result[State, spec.Ret]{Outcomes: make([]tsl.Outcome[State, spec.Ret], 0, bound+1)}
		for i := uint64(0); i < bound; i++ {
			id := MsgName(i)
			at, taken := box.find(id)
			if taken {
				continue
			}
			n := s.with(o.User, box.insert(at, Message{ID: id, Contents: o.Msg}))
			out.Outcomes = append(out.Outcomes, tsl.Outcome[State, spec.Ret]{State: n, Val: true})
		}
		// Transient failure: always allowed, never changes the state.
		out.Outcomes = append(out.Outcomes, tsl.Outcome[State, spec.Ret]{State: s, Val: false})
		return out
	}
}

func pickupT(o OpPickup) tsl.Transition[State, spec.Ret] {
	return func(s State) tsl.Result[State, spec.Ret] {
		if !s.has(o.User) {
			return tsl.Result[State, spec.Ret]{UB: true}
		}
		return tsl.Result[State, spec.Ret]{Outcomes: []tsl.Outcome[State, spec.Ret]{
			{State: s, Val: s.MessagesOf(o.User)},
		}}
	}
}

func deleteT(o OpDelete) tsl.Transition[State, spec.Ret] {
	return func(s State) tsl.Result[State, spec.Ret] {
		if !s.has(o.User) {
			return tsl.Result[State, spec.Ret]{UB: true}
		}
		box := s.r.boxes[o.User]
		at, ok := box.find(o.ID)
		if !ok {
			// Deleting an unlisted ID is outside the spec (§8.1).
			return tsl.Result[State, spec.Ret]{UB: true}
		}
		return tsl.Result[State, spec.Ret]{Outcomes: []tsl.Outcome[State, spec.Ret]{
			{State: s.with(o.User, box.remove(at)), Val: true},
			// Transient failure: the message stays.
			{State: s, Val: false},
		}}
	}
}

// OpObserve asks whether the store has detected corruption since the
// last observation: it returns true when the integrity layer's
// detection count moved.
type OpObserve struct{}

func (OpObserve) String() string { return "Observe()" }

// DetectionSpec is Spec plus OpObserve, the contract of a single
// checksummed backend: with no second copy rot may lose messages, but
// never silently. An observation that returns true may drop any
// messages; one that returns false changes nothing.
func DetectionSpec(cfg Config) spec.Interface {
	sp := Spec(cfg).(*spec.TSL[State])
	strict := sp.OpTransition
	sp.SpecName, sp.OpTransition = "mailboat-detection", func(op spec.Op) tsl.Transition[State, spec.Ret] {
		if _, ok := op.(OpObserve); ok {
			return observeT
		}
		return strict(op)
	}
	return sp
}

func observeT(s State) tsl.Result[State, spec.Ret] {
	out := tsl.Result[State, spec.Ret]{Outcomes: []tsl.Outcome[State, spec.Ret]{{State: s, Val: false}, {State: s, Val: true}}}
	for u := range s.r.boxes {
		for _, m := range s.MessagesOf(uint64(u)) {
			for _, o := range out.Outcomes[1:] {
				box := o.State.r.boxes[u]
				at, _ := box.find(m.ID)
				out.Outcomes = append(out.Outcomes, tsl.Outcome[State, spec.Ret]{State: o.State.with(uint64(u), box.remove(at)), Val: true})
			}
		}
	}
	return out
}

// bufState is the state of PrefixSpec: the state at the last crash, then
// after each step since that changed it, in linearization order. The
// last entry is the state now.
type bufState []State

// PrefixSpec is the buffered contract of barrier-free delivery
// (mailboatd -no-fsync) on a writeback store, the durable-vs-buffered
// distinction of "The Path to Durable Linearizability": operations
// behave as in Spec, but a crash keeps, per mailbox, its state after
// some prefix of the steps since the last crash — what the writeback
// model does per directory — and any delivery from those steps that
// survives may have lost its body (a torn, empty survivor). A crash
// never reorders or fabricates.
func PrefixSpec(cfg Config) spec.Interface {
	strict := Spec(cfg).(*spec.TSL[State])
	return &spec.TSL[bufState]{
		SpecName: "mailboat-prefix",
		Initial:  bufState{strict.Initial},
		OpTransition: func(op spec.Op) tsl.Transition[bufState, spec.Ret] {
			step := strict.OpTransition(op)
			return func(b bufState) tsl.Result[bufState, spec.Ret] {
				r := step(b[len(b)-1])
				out := tsl.Result[bufState, spec.Ret]{UB: r.UB}
				for _, o := range r.Outcomes {
					next := b
					if o.State.r != b[len(b)-1].r {
						next = append(slices.Clip(b), o.State)
					}
					out.Outcomes = append(out.Outcomes, tsl.Outcome[bufState, spec.Ret]{State: next, Val: o.Val})
				}
				return out
			}
		},
		CrashTransition: bufState.crash,
		KeyOf:           func(b bufState) string { return fmt.Sprint([]State(b)) }, // each entry's key, in order
	}
}

// crash returns every state a crash may leave: each mailbox as some
// entry of the log left it, with any subset of the deliveries since the
// last crash in it torn empty.
func (b bufState) crash() []spec.State {
	outs := []spec.State{bufState{b[0]}}
	for u := range b[0].r.boxes {
		var next []spec.State
		for k, s := range b {
			if box := s.r.boxes[u]; k == 0 || box.frag != b[k-1].r.boxes[u].frag {
				for _, kept := range b[:k].tears(u, box) {
					for _, o := range outs {
						next = append(next, bufState{o.(bufState)[0].with(uint64(u), kept)})
					}
				}
			}
		}
		outs = next
	}
	return outs
}

// tears returns box and, for each non-empty subset of its messages that
// some entry of b lacks (delivered since), box with them emptied.
func (b bufState) tears(u int, box mailbox) []mailbox {
	outs := []mailbox{box}
	for i, m := range box.msgs {
		if slices.ContainsFunc(b, func(e State) bool { _, ok := e.r.boxes[u].find(m.ID); return !ok }) {
			for _, o := range outs {
				msgs := slices.Clone(o.msgs)
				msgs[i].Contents = ""
				outs = append(outs, newMailbox(msgs))
			}
		}
	}
	return outs
}
