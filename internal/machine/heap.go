package machine

// cell is one volatile heap location. Cells are tied to the memory
// version at which they were allocated; after a crash they are stale and
// any use is a violation (§5.2's versioned points-to capabilities).
//
// A store takes two atomic steps (start and end), per §6.1's Go memory
// model treatment: any other access to the cell between the two steps is
// a race, which is undefined behaviour and reported as a violation.
type cell struct {
	version uint64
	value   any
	// writer is the thread currently between store-start and store-end,
	// or -1 if no store is in progress.
	writer TID
	name   string
}

// Ref is a typed reference to a volatile heap cell, the model of a Go
// pointer (or a pointer-sized field such as a slice header) in Goose.
type Ref[V any] struct {
	c *cell
}

// NewRef allocates a heap cell holding v. Allocation is one atomic step.
// The name appears in traces and violation messages.
func NewRef[V any](t *T, name string, v V) *Ref[V] {
	t.Step("alloc")
	c := &cell{version: t.m.version, value: v, writer: -1, name: name}
	t.trace("alloc", name)
	return &Ref[V]{c: c}
}

// Load reads the cell. One atomic step. Reading concurrently with a
// store to the same cell is a race and therefore undefined behaviour.
func (r *Ref[V]) Load(t *T) V {
	t.Step("load")
	t.checkVersion("pointer", r.c.name, r.c.version)
	if r.c.writer != -1 && r.c.writer != t.th.id {
		t.Failf("data race: t%d loads %s while t%d's store is in progress", t.th.id, r.c.name, r.c.writer)
	}
	v, ok := r.c.value.(V)
	if !ok && r.c.value != nil {
		t.Failf("heap cell %s holds %T, loaded at wrong type", r.c.name, r.c.value)
	}
	return v
}

// Store writes the cell in two atomic steps (start, end). Any concurrent
// access between the steps is a race.
func (r *Ref[V]) Store(t *T, v V) {
	t.Step("store-start")
	t.checkVersion("pointer", r.c.name, r.c.version)
	if r.c.writer != -1 {
		t.Failf("data race: t%d starts storing %s while t%d's store is in progress", t.th.id, r.c.name, r.c.writer)
	}
	r.c.writer = t.th.id

	t.Step("store-end")
	t.checkVersion("pointer", r.c.name, r.c.version)
	if r.c.writer != t.th.id {
		t.Failf("data race: %s store by t%d interleaved with another store", r.c.name, t.th.id)
	}
	r.c.writer = -1
	r.c.value = v
	t.trace("store", r.c.name)
}

// StoreAtomic writes the cell in a single atomic step. Goose does not
// model sync/atomic (§6.1), but the machine provides this for harness
// bookkeeping that should not introduce extra interleavings.
func (r *Ref[V]) StoreAtomic(t *T, v V) {
	t.Step("store-atomic")
	t.checkVersion("pointer", r.c.name, r.c.version)
	if r.c.writer != -1 {
		t.Failf("data race: t%d atomically stores %s while t%d's store is in progress", t.th.id, r.c.name, r.c.writer)
	}
	r.c.value = v
}
