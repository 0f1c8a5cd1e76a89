package machine

// Lock models a Go sync.Mutex in Goose (§4's lock invariants, §6.1).
// Locks are volatile: a crash destroys them, and using a lock allocated
// before a crash is a stale-pointer violation. Acquire blocks the thread
// (it is not runnable until the holder releases), so the scheduler never
// wastes interleavings on spinning.
type Lock struct {
	version uint64
	name    string
	holder  TID // -1 when free
	waiters []*thread
	m       *Machine
	obj     Obj // its name in footprints
}

// NewLock allocates a lock. One atomic step, which declares nothing: no
// other thread can touch the fresh lock yet.
func NewLock(t *T, name string) *Lock {
	t.StepDeclared("newlock")
	l := &Lock{version: t.m.version, name: name, holder: -1, m: t.m, obj: t.m.Objects(1)}
	t.trace("newlock", name)
	return l
}

// NewLock allocates a lock outside any thread, for state built before
// the threads that share it (a storage layer composed at boot). It takes
// no step: no thread can reach the lock yet.
func (m *Machine) NewLock(name string) *Lock {
	return &Lock{version: m.version, name: name, holder: -1, m: m, obj: m.Objects(1)}
}

// Acquire takes the lock, blocking while another thread holds it. The
// acquire itself is one atomic step.
func (l *Lock) Acquire(t *T) {
	t.StepDeclared("acquire")
	for {
		t.m.Touch(l.obj, Write) // each attempt, the retry after a wake too
		t.checkVersion("lock", l.name, l.version)
		if l.holder == -1 {
			l.holder = t.th.id
			t.trace("acquire", l.name)
			return
		}
		if l.holder == t.th.id {
			t.Failf("lock %s re-acquired by holder t%d (Go mutexes are not reentrant: self-deadlock)", l.name, t.th.id)
		}
		l.waiters = append(l.waiters, t.th)
		t.block()
		// Re-check: another waiter may have won the race after release.
	}
}

// Release frees the lock and wakes all waiters (they re-contend). One
// atomic step. Releasing a lock the thread does not hold is undefined
// behaviour, matching sync.Mutex's fatal unlock-of-unlocked-mutex.
func (l *Lock) Release(t *T) {
	t.StepDeclared("release")
	t.m.Touch(l.obj, Write)
	t.checkVersion("lock", l.name, l.version)
	if l.holder != t.th.id {
		t.Failf("lock %s released by t%d but held by t%d", l.name, t.th.id, l.holder)
	}
	l.holder = -1
	for _, w := range l.waiters {
		if w.status == statusBlocked {
			w.status = statusReady
		}
	}
	l.waiters = nil
	t.trace("release", l.name)
}

// Holder returns the current holder TID, or -1. For harness assertions.
func (l *Lock) Holder() TID { return l.holder }
