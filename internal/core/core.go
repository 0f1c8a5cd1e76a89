// Package core is the executable form of the Perennial logic (§5): the
// ghost state and proof rules of Table 1, enforced dynamically instead
// of deductively. A verified implementation threads a *Ctx through its
// code and performs its durable-state effects through capability-checked
// operations; any violation of the rules — using a stale-version
// capability, duplicating a lease, writing without both the master copy
// and the lease, returning from an operation that never simulated its
// spec step, or recovery completing an operation without a helping token
// — fails the execution, playing the role of a proof that does not go
// through.
//
// The pieces, mirroring Table 1:
//
//   - versioned capabilities (§5.2): every capability records the memory
//     version it belongs to; a crash advances the version and
//     invalidates stale capabilities on use.
//   - recovery leases (§5.3): a durable resource's capability is split
//     into a master copy (kept in the crash invariant, survives crashes)
//     and a lease (held by running threads, dies at a crash). Updating
//     the resource requires presenting both at the current version;
//     after a crash, recovery synthesizes a fresh lease from the master.
//   - crash invariant (§5.1): the distinguished invariant recovery
//     starts with. Masters not deposited in the crash invariant are lost
//     at a crash.
//   - refinement ghost state (§4, §5.5): source(σ) plus per-operation
//     j ⤇ op tokens; StepSim simulates one atomic spec transition at the
//     implementation's linearization point; CrashSim turns ⤇Crashing
//     into ⤇Done via the spec crash step.
//   - recovery helping (§5.4): a pending operation's j ⤇ op token can be
//     deposited in the crash invariant; after a crash, recovery may
//     retrieve it and simulate the operation on the dead thread's
//     behalf.
package core

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/spec"
)

// Ctx is the ghost state attached to one machine. It registers itself
// as a device so that machine crashes advance capability bookkeeping in
// lockstep with the memory version.
type Ctx struct {
	m *machine.Machine
	// obj names all of the ghost state in footprints (DESIGN.md "Source
	// sets and wakeup trees"): every method that changes it writes obj, every other
	// method that looks at it reads obj.
	obj machine.Obj

	resources    map[string]*resource
	setResources map[string]*setResource

	// crashInv holds resource names whose masters are currently
	// deposited in the crash invariant.
	crashInv map[string]bool

	// helping holds j ⤇ op tokens deposited in the crash invariant,
	// keyed by token; deposits counts DepositHelping calls, each token's
	// place in HelpingTokens' order.
	helping  map[*JTok]bool
	deposits uint64

	// simulation ghost state
	sp      spec.Interface
	src     spec.State
	simInit bool

	// crashing is non-nil between a crash and the recovery proof's
	// CrashSim call (the ⤇Crashing token of §5.5).
	crashing bool

	violations []string
}

// resource is one durable location's capability bookkeeping.
type resource struct {
	name string
	// val is the logical value the capabilities assert (the v in
	// d[a] ↦ₙ v). It is ghost state: the real device holds the data.
	val any
	// masterVer is the version of the outstanding master, masterLive
	// whether it survived the last crash (it does iff deposited in the
	// crash invariant).
	masterVer  uint64
	masterLive bool
	// leaseVer is the version of the outstanding lease; leaseOut whether
	// one is outstanding at that version.
	leaseVer uint64
	leaseOut bool
}

// NewCtx creates the ghost context for m and registers it for crash
// notifications.
func NewCtx(m *machine.Machine) *Ctx {
	c := &Ctx{
		m:            m,
		resources:    map[string]*resource{},
		setResources: map[string]*setResource{},
		crashInv:     map[string]bool{},
		helping:      map[*JTok]bool{},
		obj:          m.Objects(1),
	}
	m.RegisterDevice(c)
	return c
}

// Crash implements machine.Device: leases die with the version bump
// (they are version-checked on use), masters survive only if they were
// deposited in the crash invariant, and the spec-level crash step
// becomes owed (⤇Crashing).
func (c *Ctx) Crash() {
	for name, r := range c.resources {
		if !c.crashInv[name] {
			r.masterLive = false
		}
		r.leaseOut = false
	}
	for name, r := range c.setResources {
		if !c.crashInv["set:"+name] {
			r.masterLive = false
		}
		r.leaseOut = false
	}
	if c.simInit {
		c.crashing = true
	}
}

// Save implements machine.Device: Crash changes each resource's two
// liveness flags and the owed crash step.
func (c *Ctx) Save() (restore func()) {
	flags := make([]*bool, 0, 2*(len(c.resources)+len(c.setResources)))
	for _, r := range c.resources {
		flags = append(flags, &r.masterLive, &r.leaseOut)
	}
	for _, r := range c.setResources {
		flags = append(flags, &r.masterLive, &r.leaseOut)
	}
	vals := make([]bool, len(flags))
	for i, f := range flags {
		vals[i] = *f
	}
	crashing := c.crashing
	return func() {
		for i, f := range flags {
			*f = vals[i]
		}
		c.crashing = crashing
	}
}

// touch declares an access to the ghost state.
func (c *Ctx) touch(md machine.Mode) { c.m.Touch(c.obj, md) }

// failf records a logic violation and aborts the thread (when called
// with a thread) so the explorer reports it as a counterexample.
func (c *Ctx) failf(t *machine.T, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.violations = append(c.violations, msg)
	if t != nil {
		t.Failf("perennial logic violation: %s", msg)
	} else {
		c.m.Failf("perennial logic violation: %s", msg)
	}
}

// Violations returns all recorded logic violations.
func (c *Ctx) Violations() []string {
	out := append([]string{}, c.violations...)
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// Durable capabilities: master copies and recovery leases (§5.3)
// ---------------------------------------------------------------------

// Master is the master copy d[a] ↦ₙ v of a durable resource's
// capability. It records the resource's logical value so that recovery
// can rely on it after a crash.
type Master struct {
	c   *Ctx
	res *resource
	ver uint64
}

// Lease is the temporary capability leaseₙ(d[a], v): permission to
// modify the resource during the current version only.
type Lease struct {
	c   *Ctx
	res *resource
	ver uint64
}

// NewDurable allocates the capability pair for a durable resource
// currently holding val. The master is NOT yet in the crash invariant;
// deposit it with DepositMaster or it will be lost at a crash.
func (c *Ctx) NewDurable(t *machine.T, name string, val any) (*Master, *Lease) {
	c.touch(machine.Write)
	if _, dup := c.resources[name]; dup {
		c.failf(t, "durable resource %q allocated twice", name)
		return nil, nil
	}
	r := &resource{
		name: name, val: val,
		masterVer: c.m.Version(), masterLive: true,
		leaseVer: c.m.Version(), leaseOut: true,
	}
	c.resources[r.name] = r
	return &Master{c: c, res: r, ver: r.masterVer}, &Lease{c: c, res: r, ver: r.leaseVer}
}

// Name returns the resource name this master covers.
func (m *Master) Name() string { return m.res.name }

// Value returns the logical value the master asserts. Valid use requires
// the master to be live at the current version (checked).
func (m *Master) Value(t *machine.T) any {
	m.c.touch(machine.Read)
	m.check(t, "read")
	return m.res.val
}

func (m *Master) check(t *machine.T, use string) {
	if !m.res.masterLive {
		m.c.failf(t, "master %s used for %s but it was lost at a crash (not in the crash invariant)", m.res.name, use)
	}
	if m.ver != m.res.masterVer {
		m.c.failf(t, "stale master %s (version %d, current master version %d) used for %s", m.res.name, m.ver, m.res.masterVer, use)
	}
}

// Name returns the resource name this lease covers.
func (l *Lease) Name() string { return l.res.name }

// Value returns the value the lease asserts; using a lease from before
// the last crash is a violation (leases are version-restricted, §5.3).
func (l *Lease) Value(t *machine.T) any {
	l.c.touch(machine.Read)
	l.check(t, "read")
	return l.res.val
}

func (l *Lease) check(t *machine.T, use string) {
	if l.ver != l.c.m.Version() {
		l.c.failf(t, "stale lease %s (version %d, memory version %d) used for %s", l.res.name, l.ver, l.c.m.Version(), use)
	}
	if !l.res.leaseOut || l.res.leaseVer != l.ver {
		l.c.failf(t, "lease %s used for %s but it is not the outstanding lease", l.res.name, use)
	}
}

// Update is Table 1's write rule:
//
//	{d[a] ↦ₙ v₀ ∗ leaseₙ(d[a], v₀)} write {d[a] ↦ₙ v ∗ leaseₙ(d[a], v)}ₙ
//
// Both capabilities must be presented at the current version and must
// agree on the old value; apply performs the real device write while the
// rule holds.
func (c *Ctx) Update(t *machine.T, m *Master, l *Lease, newVal any, apply func()) {
	c.touch(machine.Write)
	if m.res != l.res {
		c.failf(t, "update presented master %s with lease %s", m.res.name, l.res.name)
		return
	}
	m.check(t, "update")
	l.check(t, "update")
	if m.ver != c.m.Version() {
		c.failf(t, "master %s is at version %d but memory is at %d: synthesize a fresh pair first", m.res.name, m.ver, c.m.Version())
	}
	if apply != nil {
		apply()
		c.touch(machine.Write) // apply may have stepped
	}
	m.res.val = newVal
}

// Resynthesize implements the crash rule of Table 1:
//
//	d[a] ↦ₙ v  ⟹  d[a] ↦ₙ₊₁ v ∗ leaseₙ₊₁(d[a], v)
//
// Recovery uses it to mint the new master/lease pair at the post-crash
// version. Only a live master (one that was in the crash invariant) can
// be resynthesized, and only after a crash made the current pair stale.
// Any handle of a live master may be used: a crash during recovery means
// the rerun resynthesizes from handles minted before the first crash.
func (m *Master) Resynthesize(t *machine.T) (*Master, *Lease) {
	c := m.c
	c.touch(machine.Write)
	if !m.res.masterLive {
		c.failf(t, "cannot resynthesize %s: master was lost at a crash", m.res.name)
		return nil, nil
	}
	now := c.m.Version()
	if m.res.masterVer == now {
		c.failf(t, "resynthesize %s without an intervening crash (version %d)", m.res.name, now)
		return nil, nil
	}
	if m.res.leaseOut && m.res.leaseVer == now {
		c.failf(t, "resynthesize %s would duplicate an outstanding lease", m.res.name)
		return nil, nil
	}
	m.res.masterVer = now
	m.res.leaseVer = now
	m.res.leaseOut = true
	return &Master{c: c, res: m.res, ver: now}, &Lease{c: c, res: m.res, ver: now}
}

// ---------------------------------------------------------------------
// Crash invariant (§5.1)
// ---------------------------------------------------------------------

// DepositMaster stores a master in the crash invariant so it survives
// crashes. The master stays usable for updates; the deposit is about
// crash transfer, like storing d[a] ↦ v in C (Figure 9).
func (c *Ctx) DepositMaster(t *machine.T, m *Master) {
	c.touch(machine.Write)
	m.check(t, "deposit")
	c.crashInv[m.res.name] = true
}

// WithdrawMaster removes a master from the crash invariant (e.g. when a
// temporary file's entry should no longer be preserved).
func (c *Ctx) WithdrawMaster(t *machine.T, m *Master) {
	c.touch(machine.Write)
	if !c.crashInv[m.res.name] {
		c.failf(t, "withdraw of %s which is not in the crash invariant", m.res.name)
	}
	delete(c.crashInv, m.res.name)
}

// InCrashInv reports whether the named resource's master is deposited.
func (c *Ctx) InCrashInv(name string) bool {
	c.touch(machine.Read)
	return c.crashInv[name]
}

// ---------------------------------------------------------------------
// Refinement ghost state: source(σ), j ⤇ op, helping (§4, §5.4, §5.5)
// ---------------------------------------------------------------------

// JTok is the j ⤇ op token: the right (and obligation) to simulate
// thread j's pending operation exactly once.
type JTok struct {
	c    *Ctx
	op   spec.Op
	done bool
	ret  spec.Ret
	seq  uint64 // deposit order, stamped by DepositHelping
}

// Op returns the pending operation.
func (j *JTok) Op() spec.Op { return j.op }

// Done reports whether the operation has been simulated.
func (j *JTok) Done() bool { return j.done }

// Ret returns the simulated return value; only meaningful once Done.
func (j *JTok) Ret() spec.Ret { return j.ret }

// InitSim installs the specification and initial source state,
// source(σ₀).
func (c *Ctx) InitSim(sp spec.Interface, st spec.State) {
	c.sp = sp
	c.src = st
	c.simInit = true
}

// Source returns the current source state σ (for abstraction-relation
// checks).
func (c *Ctx) Source() spec.State {
	c.touch(machine.Read)
	return c.src
}

// NewJTok mints the j ⤇ op token when an operation is invoked. A nil
// Ctx — a ghost-free run — mints the nil token, which the annotated
// operations take to mean "no proof attached".
func (c *Ctx) NewJTok(op spec.Op) *JTok {
	if c == nil {
		return nil
	}
	return &JTok{c: c, op: op}
}

// StepSim simulates j's operation at its linearization point: it checks
// step(op, σ, σ′, ret) is allowed by the spec and advances source(σ) to
// source(σ′). Each token may be simulated at most once; simulating an
// op the spec does not allow here, or with a disallowed return value,
// is a violation. ret may be spec.Pending when the return value is
// determined later by the caller (helping a crashed thread).
func (c *Ctx) StepSim(t *machine.T, j *JTok, ret spec.Ret) {
	c.StepSimWhere(t, j, ret, nil)
}

// StepSimWhere is StepSim for nondeterministic specification steps: the
// match predicate selects, among the allowed post-states, the one the
// implementation actually realized — the mechanical analog of
// instantiating an existential in the proof (e.g. which fresh message
// ID Deliver chose). A nil match picks the sole outcome and fails if
// the step is ambiguous.
func (c *Ctx) StepSimWhere(t *machine.T, j *JTok, ret spec.Ret, match func(spec.State) bool) {
	c.touch(machine.Write)
	if !c.simInit {
		c.failf(t, "StepSim before InitSim")
		return
	}
	if c.crashing {
		c.failf(t, "StepSim(%v) while a spec crash step is owed (⤇Crashing): recovery must CrashSim first or help before observing post-crash state", j.op)
		return
	}
	if j.done {
		c.failf(t, "operation %v simulated twice", j.op)
		return
	}
	nexts, ub := c.sp.Step(c.src, j.op, ret)
	if ub {
		// The spec leaves this call undefined; the proof is vacuous from
		// here on. We mark the token done so the harness does not also
		// flag it.
		j.done = true
		j.ret = ret
		return
	}
	if len(nexts) == 0 {
		c.failf(t, "StepSim: spec does not allow %v returning %v in state %s", j.op, ret, c.sp.Key(c.src))
		return
	}
	chosen := -1
	if match == nil {
		if len(nexts) > 1 {
			c.failf(t, "StepSim: %v has %d allowed outcomes; use StepSimWhere to pick the realized one", j.op, len(nexts))
			return
		}
		chosen = 0
	} else {
		for i, ns := range nexts {
			if match(ns) {
				chosen = i
				break
			}
		}
		if chosen == -1 {
			c.failf(t, "StepSimWhere: no allowed outcome of %v matches the implementation's choice", j.op)
			return
		}
	}
	c.src = nexts[chosen]
	j.done = true
	j.ret = ret
}

// FinishOp is called by the harness when an operation returns: the
// token must have been simulated (the operation's proof stepped the
// source) with the same return value the caller observed. A no-op on a
// nil Ctx, which minted no token.
func (c *Ctx) FinishOp(t *machine.T, j *JTok, ret spec.Ret) {
	if c == nil {
		return
	}
	c.touch(machine.Read)
	if !j.done {
		c.failf(t, "operation %v returned %v without simulating its spec step (missing linearization point)", j.op, ret)
		return
	}
	if !spec.Equal(j.ret, ret) {
		c.failf(t, "operation %v simulated return %v but actually returned %v", j.op, j.ret, ret)
	}
}

// DepositHelping stores j ⤇ op in the crash invariant (§5.4): if the
// system crashes while the token is deposited, recovery may withdraw it
// and complete the operation on the dead thread's behalf.
func (c *Ctx) DepositHelping(t *machine.T, j *JTok) {
	c.touch(machine.Write)
	if j.done {
		c.failf(t, "helping deposit of already-simulated op %v", j.op)
		return
	}
	c.deposits++
	j.seq = c.deposits
	c.helping[j] = true
}

// WithdrawHelping removes a deposited token, e.g. when the operation
// completes normally and simulates its own step.
func (c *Ctx) WithdrawHelping(t *machine.T, j *JTok) {
	c.touch(machine.Write)
	if !c.helping[j] {
		c.failf(t, "withdraw of helping token %v which is not deposited", j.op)
		return
	}
	delete(c.helping, j)
}

// HelpingTokens returns the deposited tokens in deposit order (recovery
// iterates these to decide which crashed operations it is completing),
// so two tokens with equal operations come back in the same order on
// every run.
func (c *Ctx) HelpingTokens() []*JTok {
	c.touch(machine.Read)
	var out []*JTok
	for j := range c.helping {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Help lets recovery simulate a deposited token's operation with
// Pending return (nobody observes it), consuming the token. This is the
// recovery-helping rule: recovery completes the crashed thread's
// operation (§5.4).
func (c *Ctx) Help(t *machine.T, j *JTok) {
	c.touch(machine.Write)
	if !c.helping[j] {
		c.failf(t, "recovery helping op %v without a deposited token", j.op)
		return
	}
	delete(c.helping, j)
	// Helping happens logically just before the crash the token survived,
	// so it is simulated before the owed crash step.
	wasCrashing := c.crashing
	c.crashing = false
	c.StepSim(t, j, spec.Pending)
	c.crashing = wasCrashing
}

// CrashSim performs the spec-level crash transition, discharging the
// owed ⤇Crashing into ⤇Done (Table 1's crash-refinement rule). Recovery
// must call it exactly once per machine crash, after any helping. The
// ghost source is one state, so the spec's crash must have exactly one
// outcome: a spec whose crash chooses is checked black-box.
func (c *Ctx) CrashSim(t *machine.T) {
	c.touch(machine.Write)
	if !c.simInit {
		c.failf(t, "CrashSim before InitSim")
		return
	}
	if !c.crashing {
		c.failf(t, "CrashSim without an owed spec crash step (no ⤇Crashing token)")
		return
	}
	// Tokens still deposited belong to threads that died without being
	// helped: their operations never take effect. Drop them.
	c.helping = map[*JTok]bool{}
	next := c.sp.Crash(c.src)
	if len(next) != 1 {
		c.failf(t, "CrashSim: spec %s allows %d crash outcomes, the ghost source follows exactly one", c.sp.Name(), len(next))
		return
	}
	c.src = next[0]
	c.crashing = false
}

// CrashPending reports whether a spec crash step is still owed.
func (c *Ctx) CrashPending() bool {
	c.touch(machine.Read)
	return c.crashing
}
