package core

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// AppendDurable implements machine.Device for the ghost context.
// Ghost state steers which executions the capability rules admit, so it
// is part of the crash-boundary state the explorer's dedup table hashes:
// two boundary states that differ only in ghost bookkeeping can still
// diverge later (e.g. one has a master deposited in the crash invariant
// and the other does not). Logical values are encoded via fmt ("%v"),
// which is canonical for the comparable value types the examples use.
func (c *Ctx) AppendDurable(b []byte) []byte {
	names := make([]string, 0, len(c.resources))
	for n := range c.resources {
		names = append(names, n)
	}
	sort.Strings(names)
	b = machine.AppendUint64(b, uint64(len(names)))
	for _, n := range names {
		r := c.resources[n]
		b = machine.AppendString(b, n)
		b = machine.AppendString(b, fmt.Sprintf("%v", r.val))
		b = machine.AppendUint64(b, r.masterVer)
		b = machine.AppendBool(b, r.masterLive)
		b = machine.AppendUint64(b, r.leaseVer)
		b = machine.AppendBool(b, r.leaseOut)
	}

	setNames := make([]string, 0, len(c.setResources))
	for n := range c.setResources {
		setNames = append(setNames, n)
	}
	sort.Strings(setNames)
	b = machine.AppendUint64(b, uint64(len(setNames)))
	for _, n := range setNames {
		r := c.setResources[n]
		b = machine.AppendString(b, n)
		elems := make([]string, 0, len(r.elems))
		for e := range r.elems {
			elems = append(elems, e)
		}
		sort.Strings(elems)
		b = machine.AppendUint64(b, uint64(len(elems)))
		for _, e := range elems {
			b = machine.AppendString(b, e)
		}
		b = machine.AppendUint64(b, r.masterVer)
		b = machine.AppendBool(b, r.masterLive)
		b = machine.AppendUint64(b, r.leaseVer)
		b = machine.AppendBool(b, r.leaseOut)
	}

	inv := make([]string, 0, len(c.crashInv))
	for n := range c.crashInv {
		inv = append(inv, n)
	}
	sort.Strings(inv)
	b = machine.AppendUint64(b, uint64(len(inv)))
	for _, n := range inv {
		b = machine.AppendString(b, n)
	}

	// Deposited helping tokens: identity does not matter, the multiset
	// of (op, done, ret) does.
	toks := make([]string, 0, len(c.helping))
	for j := range c.helping {
		toks = append(toks, fmt.Sprintf("%v|%v|%v", j.op, j.done, j.ret))
	}
	sort.Strings(toks)
	b = machine.AppendUint64(b, uint64(len(toks)))
	for _, s := range toks {
		b = machine.AppendString(b, s)
	}

	b = machine.AppendBool(b, c.simInit)
	if c.simInit {
		b = machine.AppendString(b, c.sp.Key(c.src))
	}
	b = machine.AppendBool(b, c.crashing)
	return machine.AppendUint64(b, uint64(len(c.violations)))
}
