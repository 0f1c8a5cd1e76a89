package machine

// A carrier is one coroutine that runs simulated-thread bodies one after
// another: take a thread, run its body under the recover every thread
// runs under, go idle, take the next. The stack it grew on the way down
// through mailboat → gfs → Model → T.Step stays grown for the next
// thread, which is what a fresh coroutine per thread paid for over and
// over (runtime.newstack/copystack were a quarter of a checker pass).
//
// A thread is bound to a carrier at its first resume, never at spawn: a
// thread that is never scheduled never starts and takes nothing.
type carrier struct {
	next  func() (status, bool) // scheduler side: switch to the carrier
	stop  func()                // scheduler side: end an idle carrier
	yield func(status) bool     // carrier side: switch back

	th *thread // the thread it is running; nil while idle
}

// Carriers is a set of carriers owned by whoever runs executions — a
// search worker, a stress worker, one ReplayCx or Minimize call. The
// owner passes it to every machine it builds (NewOn), uses it across all
// eras of all its executions, and calls Release before it returns. A
// set belongs to one goroutine: at most one era runs on it at a time.
//
// The zero value is an empty set, ready to use.
type Carriers struct {
	idle []*carrier // LIFO: the carrier parked last has the warmest stack

	// threads and ready are the storage of a machine's thread list and
	// runnable buffer, lent to it for the length of an era (see RunEra)
	// so that an execution's eras do not each grow their own.
	threads, ready []*thread

	// eraScoped marks a bare machine's private set (New): a carrier of
	// it runs one thread and returns instead of idling, so every
	// thread's goroutine is gone when RunEra returns and nobody has
	// anything to release.
	eraScoped bool
}

// Release ends the set's idle carriers. Between eras every carrier of
// the set is idle, so afterwards none of its goroutines is left. The
// set stays usable: the next thread simply starts a new carrier.
func (cs *Carriers) Release() {
	for i, c := range cs.idle {
		c.stop()
		cs.idle[i] = nil
	}
	cs.idle = cs.idle[:0]
}

// bind gives th a carrier: the one parked last, or a new one.
func (cs *Carriers) bind(th *thread) *carrier {
	var c *carrier
	if n := len(cs.idle); n > 0 {
		c, cs.idle[n-1] = cs.idle[n-1], nil
		cs.idle = cs.idle[:n-1]
	} else {
		c = cs.start()
	}
	c.th, th.c = th, c
	return c
}

// start creates a carrier (pull is iter.Pull, or its race-build
// stand-in): the scheduler's next() switches straight to it without a
// trip through the Go scheduler, and its yield switches straight back.
// This is the only place a coroutine is made.
//
// Every frame here lies under every frame of the thread, and the
// runtime walks them all each time the thread's stack grows. Going on
// after a thread has panicked takes two: one that recovers (run), one
// below it to carry on in (the loop). A carrier of an era-scoped set
// never goes on, so its thread runs under the body's own recover, in
// the one frame a thread had before carriers — the second made every
// growth dearer and cost a bare machine's 2.7 µs recovery era 0.8 µs.
func (cs *Carriers) start() *carrier {
	c := &carrier{}
	if cs.eraScoped {
		c.next, c.stop = pull(func(yield func(status) bool) {
			c.yield = yield
			defer c.th.caught()
			c.th.fn(&c.th.t)
		})
		return c
	}
	c.next, c.stop = pull(func(yield func(status) bool) {
		c.yield = yield
		for {
			c.th.run()
			c.th = nil
			// Idle until bound to the next thread; stop() ends the wait.
			if !yield(statusExited) {
				return
			}
		}
	})
	return c
}

// run is a thread's whole life on a carrier that outlives it. A body
// that leaves by runtime.Goexit (a t.Fatal inside a simulated thread)
// takes the carrier's coroutine with it.
func (th *thread) run() {
	defer th.caught()
	th.fn(&th.t)
}

// caught ends a panicking thread: quietly on the kill sentinel, with a
// violation on anything else.
func (th *thread) caught() {
	if r := recover(); r != nil {
		if _, ok := r.(killedSentinel); !ok {
			th.t.m.Failf("thread %d panicked: %v", th.id, r)
		}
	}
}

// resume switches to th until it parks at its next step boundary, blocks
// or exits, and records the status it stopped in. An exited thread's
// carrier goes back to the set, unless its coroutine ended with it.
func (m *Machine) resume(th *thread) {
	c := th.c
	if c == nil {
		c = m.carriers.bind(th)
	}
	st, live := c.next()
	if !live {
		st = statusExited
	}
	th.status = st
	if st == statusExited {
		m.alive--
		th.c = nil
		if live {
			m.carriers.idle = append(m.carriers.idle, c)
		}
	}
}
