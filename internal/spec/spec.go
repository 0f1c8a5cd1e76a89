// Package spec defines the interface between specifications (transition
// systems written in internal/tsl) and the checkers that consume them
// (the history checker and the model-checking explorer).
//
// A specification is the paper's §3.1 object: a state, one atomic
// transition per top-level operation, and a crash transition. The
// checker-facing Interface asks, for a given pre-state, operation, and
// observed return value, which post-states the spec allows — the exact
// question a forward-simulation step (§3.2, Theorem 1) answers.
package spec

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/tsl"
)

// Op is a specification-level operation together with its arguments,
// e.g. rd_write{a: 3, v: 7}. Ops must be printable; fmt.Sprintf("%v") is
// used in traces and counterexamples.
type Op any

// Ret is an operation's return value as observed by the caller.
type Ret any

// State is a specification state.
type State any

type pending struct{}

func (pending) String() string { return "<pending>" }

// Pending is the return value of an operation that never returned
// because a crash killed its thread. A spec Step with Pending accepts
// any allowed return value (nobody observed it) — this is what makes
// recovery helping (§5.4) checkable: the helped operation's effect must
// be allowed for *some* return.
var Pending Ret = pending{}

// Equal reports whether a and b are the same return value: of one
// dynamic type, and equal as reflect.DeepEqual says. It is DeepEqual,
// only cheaper where it can be: a type built from booleans, numbers and
// strings, and arrays and structs of them, compares with ==, which
// cannot panic on it and means what DeepEqual means there. Any other
// type takes DeepEqual: an interface field makes == panic when it holds
// a slice, and a pointer makes == compare addresses where DeepEqual
// compares what they point to.
func Equal(a, b Ret) bool {
	t := reflect.TypeOf(a)
	if t != reflect.TypeOf(b) {
		return false
	}
	if t == nil || plain(t) {
		return a == b
	}
	if t.Kind() == reflect.Pointer && a == b {
		return true // what DeepEqual says first
	}
	return reflect.DeepEqual(a, b)
}

// plainTypes caches plain's verdict on array and struct types, whose
// fields reflect can only list by allocating.
var plainTypes sync.Map // reflect.Type → bool

// plain reports whether t is built from booleans, numbers and strings
// alone, so that == on two values of it is DeepEqual.
func plain(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		return true
	case reflect.Array, reflect.Struct:
		if p, ok := plainTypes.Load(t); ok {
			return p.(bool)
		}
		p := true
		if t.Kind() == reflect.Array {
			p = plain(t.Elem())
		} else {
			for i := 0; i < t.NumField() && p; i++ {
				p = plain(t.Field(i).Type)
			}
		}
		plainTypes.Store(t, p)
		return p
	}
	return false
}

// Interface is what checkers need from a specification.
type Interface interface {
	// Name identifies the spec in reports.
	Name() string
	// Init returns the initial specification state.
	Init() State
	// Step returns the allowed post-states when op executes atomically in
	// s returning ret (Pending = any return). ub reports that the spec
	// leaves this call undefined in s, in which case every implementation
	// behaviour is vacuously allowed.
	Step(s State, op Op, ret Ret) (next []State, ub bool)
	// Crash returns the states the spec-level atomic crash transition
	// (§3.1's crash) allows from s: one for a spec that says exactly what
	// a crash keeps, several for one that lets a crash choose (a buffered
	// store keeping some prefix of its recent operations).
	Crash(s State) []State
	// Key returns a canonical hashable key for s, for memoization.
	Key(s State) string
}

// TSL adapts a family of tsl transitions over a concrete state type S
// into a checker-facing Interface. Return values are compared with
// Equal.
type TSL[S any] struct {
	// SpecName identifies the spec.
	SpecName string
	// Initial is the initial state.
	Initial S
	// OpTransition maps an operation to its transition. It must be total
	// over the ops the harness emits.
	OpTransition func(op Op) tsl.Transition[S, Ret]
	// CrashTransition is the spec crash step, returning every allowed
	// outcome; nil means identity (no data lost on crash, like Figure 3).
	CrashTransition func(S) []State
	// KeyOf produces the memoization key; nil means fmt.Sprintf("%v").
	KeyOf func(S) string
}

// Name implements Interface.
func (t *TSL[S]) Name() string { return t.SpecName }

// Init implements Interface.
func (t *TSL[S]) Init() State { return t.Initial }

// Step implements Interface.
func (t *TSL[S]) Step(s State, op Op, ret Ret) ([]State, bool) {
	cs, ok := s.(S)
	if !ok {
		panic(fmt.Sprintf("spec %s: state has type %T", t.SpecName, s))
	}
	r := t.OpTransition(op)(cs)
	if r.UB {
		return nil, true
	}
	next := make([]State, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if _, isPending := ret.(pending); !isPending && !Equal(o.Val, ret) {
			continue
		}
		next = append(next, State(o.State))
	}
	return next, false
}

// Crash implements Interface.
func (t *TSL[S]) Crash(s State) []State {
	if t.CrashTransition == nil {
		return []State{s}
	}
	return t.CrashTransition(s.(S))
}

// Key implements Interface.
func (t *TSL[S]) Key(s State) string {
	cs := s.(S)
	if t.KeyOf == nil {
		return fmt.Sprintf("%v", cs)
	}
	return t.KeyOf(cs)
}
