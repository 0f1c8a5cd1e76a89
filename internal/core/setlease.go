package core

import (
	"sort"

	"repro/internal/machine"
)

// This file implements the lower-bound lease of §8.3: Mailboat's
// mailbox lock cannot hold an exact-value lease on the directory
// contents, because lock-free deliveries insert new files while the
// lock is held. Instead the lock protects lease(dir, ⊇N): a lease
// guaranteeing the directory contains *at least* the names in N. The
// holder may delete names it has observed (they are in the lower
// bound), while other threads may only create new ones (which preserves
// any lower bound).

// SetMaster is the master copy dir ↦ N for a set-valued durable
// resource: it records the exact element set, for recovery's benefit.
type SetMaster struct {
	c   *Ctx
	res *setResource
}

// SetLease is the lower-bound lease lease(dir, ⊇N): permission, during
// the current version only, to delete elements known to be present.
type SetLease struct {
	c     *Ctx
	res   *setResource
	ver   uint64
	lower map[string]bool
}

type setResource struct {
	name       string
	elems      map[string]bool
	masterVer  uint64
	masterLive bool
	leaseVer   uint64
	leaseOut   bool
}

// NewDurableSet allocates the master/lower-bound-lease pair for a
// set-valued durable resource currently holding elems. Like NewDurable,
// the master must be deposited in the crash invariant to survive
// crashes.
func (c *Ctx) NewDurableSet(t *machine.T, name string, elems []string) (*SetMaster, *SetLease) {
	c.touch(machine.Write)
	if _, dup := c.resources[name]; dup {
		c.failf(t, "durable resource %q allocated twice", name)
		return nil, nil
	}
	if _, dup := c.setResources[name]; dup {
		c.failf(t, "durable set resource %q allocated twice", name)
		return nil, nil
	}
	set := map[string]bool{}
	for _, e := range elems {
		set[e] = true
	}
	r := &setResource{
		name: name, elems: set,
		masterVer: c.m.Version(), masterLive: true,
		leaseVer: c.m.Version(), leaseOut: true,
	}
	c.setResources[name] = r
	lease := &SetLease{c: c, res: r, ver: r.leaseVer, lower: map[string]bool{}}
	for e := range set {
		lease.lower[e] = true
	}
	return &SetMaster{c: c, res: r}, lease
}

// Name returns the resource name.
func (m *SetMaster) Name() string { return m.res.name }

// Elems returns the exact element set the master asserts (sorted).
func (m *SetMaster) Elems(t *machine.T) []string {
	m.c.touch(machine.Read)
	m.check(t, "read")
	out := make([]string, 0, len(m.res.elems))
	for e := range m.res.elems {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

func (m *SetMaster) check(t *machine.T, use string) {
	if !m.res.masterLive {
		m.c.failf(t, "set master %s used for %s but it was lost at a crash (not in the crash invariant)", m.res.name, use)
	}
}

// Insert records a new element. No lease is required: insertion only
// grows the set, so every outstanding lower bound stays valid — this is
// what lets Mailboat deliver without taking the mailbox lock (§8.3).
// apply performs the real effect (e.g. the link) in the same atomic
// turn. Inserting a present element is a violation (the caller must
// have won an exclusive create).
func (m *SetMaster) Insert(t *machine.T, elem string, apply func()) {
	m.c.touch(machine.Write)
	m.check(t, "insert")
	if m.res.masterVer != m.c.m.Version() {
		m.c.failf(t, "set master %s is at version %d but memory is at %d: resynthesize first", m.res.name, m.res.masterVer, m.c.m.Version())
	}
	if m.res.elems[elem] {
		m.c.failf(t, "set %s: insert of %q which is already present", m.res.name, elem)
		return
	}
	if apply != nil {
		apply()
		m.c.touch(machine.Write) // apply may have stepped
	}
	m.res.elems[elem] = true
}

// Lower returns the lease's current lower bound (sorted).
func (l *SetLease) Lower(t *machine.T) []string {
	l.c.touch(machine.Read)
	l.check(t, "read")
	out := make([]string, 0, len(l.lower))
	for e := range l.lower {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Contains reports whether elem is in the lease's lower bound.
func (l *SetLease) Contains(t *machine.T, elem string) bool {
	l.c.touch(machine.Read)
	l.check(t, "read")
	return l.lower[elem]
}

func (l *SetLease) check(t *machine.T, use string) {
	if l.ver != l.c.m.Version() {
		l.c.failf(t, "stale lower-bound lease %s (version %d, memory version %d) used for %s", l.res.name, l.ver, l.c.m.Version(), use)
	}
	if !l.res.leaseOut || l.res.leaseVer != l.ver {
		l.c.failf(t, "lower-bound lease %s used for %s but it is not the outstanding lease", l.res.name, use)
	}
}

// Refresh raises the lower bound to the master's full current set. Only
// the lease holder (under the protecting lock) may do this, typically
// right after listing the directory — the list result is exactly the
// set the lease then guarantees.
func (l *SetLease) Refresh(t *machine.T, m *SetMaster) {
	l.c.touch(machine.Write)
	l.check(t, "refresh")
	m.check(t, "refresh")
	if l.res != m.res {
		l.c.failf(t, "refresh of lease %s against master %s", l.res.name, m.res.name)
		return
	}
	l.lower = map[string]bool{}
	for e := range m.res.elems {
		l.lower[e] = true
	}
}

// Remove deletes an element. It requires the lower-bound lease and that
// the element is in the lower bound (the holder has observed it under
// the lock) — deleting something merely hoped to exist is a violation.
// apply performs the real unlink in the same atomic turn.
func (m *SetMaster) Remove(t *machine.T, l *SetLease, elem string, apply func()) {
	m.c.touch(machine.Write)
	m.check(t, "remove")
	l.check(t, "remove")
	if l.res != m.res {
		m.c.failf(t, "remove via lease %s against master %s", l.res.name, m.res.name)
		return
	}
	if !l.lower[elem] {
		m.c.failf(t, "set %s: remove of %q which is not in the lease's lower bound", m.res.name, elem)
		return
	}
	if apply != nil {
		apply()
		m.c.touch(machine.Write) // apply may have stepped
	}
	delete(m.res.elems, elem)
	delete(l.lower, elem)
}

// DepositSetMaster stores a set master in the crash invariant, like
// DepositMaster.
func (c *Ctx) DepositSetMaster(t *machine.T, m *SetMaster) {
	c.touch(machine.Write)
	m.check(t, "deposit")
	c.crashInv["set:"+m.res.name] = true
}

// Resynthesize mints a fresh master/lower-bound-lease pair at the
// post-crash version, with the lower bound starting at the full set
// (recovery holds all the locks, trivially). Only a live master (one
// deposited in the crash invariant) can be resynthesized.
func (m *SetMaster) Resynthesize(t *machine.T) (*SetMaster, *SetLease) {
	c := m.c
	c.touch(machine.Write)
	if !m.res.masterLive {
		c.failf(t, "cannot resynthesize set %s: master was lost at a crash", m.res.name)
		return nil, nil
	}
	now := c.m.Version()
	if m.res.masterVer == now {
		c.failf(t, "resynthesize set %s without an intervening crash (version %d)", m.res.name, now)
		return nil, nil
	}
	m.res.masterVer = now
	m.res.leaseVer = now
	m.res.leaseOut = true
	lease := &SetLease{c: c, res: m.res, ver: now, lower: map[string]bool{}}
	for e := range m.res.elems {
		lease.lower[e] = true
	}
	return &SetMaster{c: c, res: m.res}, lease
}
