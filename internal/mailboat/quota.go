package mailboat

import (
	"sync"

	"repro/internal/gfs"
	"repro/internal/machine"
)

// This file is the quota extension (Config.QuotaBytes): per-user byte
// accounting around Deliver and Delete, re-derived from the store by
// reinit. Figure 10 has no quotas; with QuotaBytes zero nothing here
// runs.

// quotaState tracks per-user mailbox bytes under Config.QuotaBytes.
// Deliver reserves optimistically before spooling (lock-free delivery
// must not fill a mailbox it already knows is full), commits the
// published name's size on link, and refunds on failure; Delete credits
// the deleted message's bytes back. The mutex is a plain Go lock: the
// sections it guards contain no machine steps, so the checker's
// schedules are unaffected.
type quotaState struct {
	mu    sync.Mutex
	used  []uint64
	sizes []map[string]uint64 // per user: mailbox name -> message bytes
	// m is the machine of a modeled store, nil on a native one: user u's
	// accounting is object obj+u in its footprints (DESIGN.md "Source
	// sets and wakeup trees").
	m   *machine.Machine
	obj machine.Obj
}

// touch declares a write of user's accounting.
func (q *quotaState) touch(user uint64) {
	if q.m != nil {
		q.m.Touch(q.obj+machine.Obj(user), machine.Write)
	}
}

// initQuota derives per-user usage from the store: the size of every
// mailbox entry. Runs single-threaded at Init/Recover before the store
// takes traffic; a no-op (and no extra I/O) when quotas are disabled.
func (mb *Mailboat) initQuota(t gfs.T) {
	if mb.cfg.QuotaBytes == 0 {
		return
	}
	q := &quotaState{
		used:  make([]uint64, mb.cfg.Users),
		sizes: make([]map[string]uint64, mb.cfg.Users),
	}
	if mt, ok := t.(*machine.T); ok {
		q.m = mt.Machine()
		q.obj = q.m.Objects(mb.cfg.Users)
	}
	for u := uint64(0); u < mb.cfg.Users; u++ {
		q.sizes[u] = map[string]uint64{}
		for _, name := range mb.sys.List(t, UserDir(u)) {
			fd, ok := mb.sys.Open(t, UserDir(u), name)
			if !ok {
				continue
			}
			n := mb.sys.Size(t, fd)
			mb.sys.Close(t, fd)
			q.sizes[u][name] = n
			q.used[u] += n
		}
	}
	mb.quota = q
}

// QuotaUsed reports user's tracked mailbox bytes (0 when quotas are
// disabled), for tests and operator surfaces.
func (mb *Mailboat) QuotaUsed(user uint64) uint64 {
	if mb.quota == nil {
		return 0
	}
	mb.quota.mu.Lock()
	defer mb.quota.mu.Unlock()
	return mb.quota.used[user]
}

// quotaReserve charges n bytes against user's quota, refusing (with no
// charge) when it would overflow. Reservation happens before spooling:
// lock-free concurrent deliveries must not all squeeze past the same
// almost-full reading.
func (mb *Mailboat) quotaReserve(user uint64, n uint64) bool {
	if mb.quota == nil {
		return true
	}
	q := mb.quota
	q.touch(user)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.used[user]+n > mb.cfg.QuotaBytes {
		return false
	}
	q.used[user] += n
	return true
}

// quotaRelease refunds a reservation whose delivery failed.
func (mb *Mailboat) quotaRelease(user uint64, n uint64) {
	if mb.quota == nil {
		return
	}
	q := mb.quota
	q.touch(user)
	q.mu.Lock()
	q.used[user] -= n
	q.mu.Unlock()
}

// quotaCommit records the published name of a reserved delivery so a
// later Delete can credit the right number of bytes back.
func (mb *Mailboat) quotaCommit(user uint64, name string, n uint64) {
	if mb.quota == nil {
		return
	}
	q := mb.quota
	q.touch(user)
	q.mu.Lock()
	q.sizes[user][name] = n
	q.mu.Unlock()
}

// quotaCredit returns a deleted message's bytes to user's quota.
func (mb *Mailboat) quotaCredit(user uint64, name string) {
	if mb.quota == nil {
		return
	}
	q := mb.quota
	q.touch(user)
	q.mu.Lock()
	if n, ok := q.sizes[user][name]; ok {
		q.used[user] -= n
		delete(q.sizes[user], name)
	}
	q.mu.Unlock()
}
