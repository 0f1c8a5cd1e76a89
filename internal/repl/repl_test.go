package repl

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gfs"
	"repro/internal/machine"
	"repro/internal/mailboat"
	"repro/internal/netmodel"
)

// pairRig is the fault-free model composition the protocol unit tests
// drive: two model stores behind fault layers, a modeled network, one
// Pair.
type pairRig struct {
	m    *machine.Machine
	fs   [2]*gfs.Model
	f    [2]*gfs.Faulty
	net  *netmodel.Net
	cfg  mailboat.Config
	pair *Pair
}

func newPairRig(storePol, netPol fault.Policy) *pairRig {
	return newPairRigOn(machine.Options{MaxSteps: 300000}, storePol, netPol)
}

// newPairRigOn is newPairRig on a machine built with opts.
func newPairRigOn(opts machine.Options, storePol, netPol fault.Policy) *pairRig {
	r := &pairRig{cfg: mailboat.Config{Users: 2, RandBound: 8, SyncOnDeliver: true, SyncDirs: true}}
	r.m = machine.New(opts)
	for i := 0; i < 2; i++ {
		r.fs[i] = gfs.NewModel(r.m, ReplDirs(r.cfg))
		r.f[i] = gfs.NewFaulty(r.fs[i], storePol)
	}
	r.net = netmodel.New(r.m, netPol)
	return r
}

func (r *pairRig) build(mt *machine.T) *Pair {
	r.pair = NewPair(mt, [2]gfs.System{r.f[0], r.f[1]}, r.net, r.cfg, Variant{})
	return r.pair
}

// userEqual fails the era unless both stores hold byte-identical
// mailboxes for every user.
func (r *pairRig) userEqual(mt *machine.T) {
	for u := uint64(0); u < r.cfg.Users; u++ {
		a := r.fs[0].PeekDir(mailboat.UserDir(u))
		b := r.fs[1].PeekDir(mailboat.UserDir(u))
		if len(a) != len(b) {
			mt.Failf("user %d: %d vs %d messages", u, len(a), len(b))
		}
		for name, body := range a {
			if string(b[name]) != string(body) {
				mt.Failf("user %d name %s: %q vs %q", u, name, body, b[name])
			}
		}
	}
}

// TestPairRoundTrip drives the replicated protocol fault-free: after
// every acked operation the two stores are byte-identical, and the
// session surface (pickup, delete under the session lock, unlock)
// behaves like the plain library's.
func TestPairRoundTrip(t *testing.T) {
	r := newPairRig(fault.Never{}, fault.Never{})
	res := r.m.RunEra(machine.NewRandChooser(1), false, func(mt *machine.T) {
		p := r.build(mt)
		if ok, ans := p.Deliver(mt, 0, []byte("one")); !ok || !ans {
			mt.Failf("deliver one")
		}
		if ok, ans := p.Deliver(mt, 0, []byte("two")); !ok || !ans {
			mt.Failf("deliver two")
		}
		r.userEqual(mt)
		msgs, ok := p.Pickup(mt, 0)
		if !ok || len(msgs) != 2 {
			mt.Failf("pickup: ok=%v msgs=%v", ok, msgs)
		}
		var victim string
		for _, m := range msgs {
			if m.Contents == "one" {
				victim = m.ID
			}
		}
		if ok, ans := p.Delete(mt, 0, victim); !ok || !ans {
			mt.Failf("delete %s", victim)
		}
		p.Unlock(mt, 0)
		r.userEqual(mt)
		msgs, ok = p.Pickup(mt, 0)
		if !ok || len(msgs) != 1 || msgs[0].Contents != "two" {
			mt.Failf("re-pickup: %v", msgs)
		}
		p.Unlock(mt, 0)
		if p.Degraded() {
			mt.Failf("degraded while healthy")
		}
		if e0, e1 := p.Nodes[0].Epoch(), p.Nodes[1].Epoch(); e0 != 0 || e1 != 0 {
			mt.Failf("epochs moved without failover: %d %d", e0, e1)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
}

// TestPairIdenticalContentsTwice pins the double-insert semantics: two
// deliveries of byte-identical contents must insert two messages, never
// collapse into one via the idempotence path (which is reserved for
// retries of the SAME operation).
func TestPairIdenticalContentsTwice(t *testing.T) {
	r := newPairRig(fault.Never{}, fault.Never{})
	res := r.m.RunEra(machine.NewRandChooser(1), false, func(mt *machine.T) {
		p := r.build(mt)
		if ok, _ := p.Deliver(mt, 0, []byte("same")); !ok {
			mt.Failf("deliver first")
		}
		if ok, _ := p.Deliver(mt, 0, []byte("same")); !ok {
			mt.Failf("deliver second")
		}
		msgs, ok := p.Pickup(mt, 0)
		if !ok || len(msgs) != 2 {
			mt.Failf("identical contents collapsed: %v", msgs)
		}
		p.Unlock(mt, 0)
		r.userEqual(mt)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
}

// TestPairFailover kills the primary's store and expects the next
// delivery to promote the backup (bumping and persisting the epoch) and
// succeed there, with the pair reporting degraded.
func TestPairFailover(t *testing.T) {
	r := newPairRig(fault.Never{}, fault.Never{})
	res := r.m.RunEra(machine.NewRandChooser(1), false, func(mt *machine.T) {
		p := r.build(mt)
		if ok, _ := p.Deliver(mt, 0, []byte("before")); !ok {
			mt.Failf("deliver before")
		}
		r.f[0].FailStopNow("test: primary store dies")
		if ok, ans := p.Deliver(mt, 0, []byte("after")); !ok || !ans {
			mt.Failf("deliver after failover")
		}
		if p.Primary() != 1 {
			mt.Failf("primary is %d, want 1", p.Primary())
		}
		if e := p.Nodes[1].Epoch(); e != 1 {
			mt.Failf("survivor epoch %d, want 1", e)
		}
		if !p.Degraded() {
			mt.Failf("pair not degraded with a dead node")
		}
		msgs, ok := p.Pickup(mt, 0)
		if !ok || len(msgs) != 2 {
			mt.Failf("survivor pickup: ok=%v msgs=%v", ok, msgs)
		}
		p.Unlock(mt, 0)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
}

// conflicts reports whether footprint a conflicts with any of bs.
func conflicts(a []machine.Access, bs [][]machine.Access) bool {
	return slices.ContainsFunc(bs, func(b []machine.Access) bool { return machine.Conflict(a, b) })
}

// TestPrimaryWriteConflictsWithLeaderRead: ensureLivePrimary reads the
// pair's primary, and a failover writes it, so the search never reorders
// the read across the failover's transitions as if they commuted. The
// read's transition touches nothing else a failover writes: without the
// primary's declaration the two would commute.
func TestPrimaryWriteConflictsWithLeaderRead(t *testing.T) {
	rec := &machine.Recorder{}
	r := newPairRigOn(machine.Options{MaxSteps: 300000, Reducer: rec}, fault.Never{}, fault.Never{})
	var read, fo [2]int
	res := r.m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		p := r.build(mt)
		mt.StepDeclared("mark")
		read[0] = len(rec.Ran) // the transition the mark starts ends at the next draw
		if cur, ok := p.ensureLivePrimary(mt); cur != 0 || !ok {
			mt.Failf("primary %d, ok %v", cur, ok)
		}
		mt.StepDeclared("mark")
		read[1] = len(rec.Ran)
		r.f[0].FailStopNow("test: primary store dies")
		mt.StepDeclared("mark")
		fo[0] = len(rec.Ran)
		if !p.failover(mt) {
			mt.Failf("failover refused")
		}
		mt.StepDeclared("mark")
		fo[1] = len(rec.Ran)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	if read[1]-read[0] != 1 {
		t.Fatalf("ensureLivePrimary on a live primary took %d transitions, want 1", read[1]-read[0])
	}
	if !conflicts(rec.Ran[read[0]], rec.Ran[fo[0]:fo[1]]) {
		t.Errorf("ensureLivePrimary's read %v commutes with every transition of the failover", rec.Ran[read[0]])
	}
}

// TestSharedStateDeclarations: each declared access to a Node's
// snapshot fields and to a user's session conflicts with the access
// that reads what it writes, and one user's session commutes with
// another's. Each case runs its write and its read as spans of their
// own transitions on one machine, so a dropped Touch makes its case
// commute.
func TestSharedStateDeclarations(t *testing.T) {
	type op func(p *Pair, mt *machine.T)
	setEpoch := func(p *Pair, _ *machine.T) { nd := p.Nodes[0]; nd.setEpoch(nd.epoch) }
	setSeq := func(p *Pair, _ *machine.T) { nd := p.Nodes[0]; nd.setSeq(nd.seq) }
	ping := func(p *Pair, mt *machine.T) { p.Nodes[0].ping(mt) }
	status := func(i int) op { return func(p *Pair, _ *machine.T) { p.Nodes[i].Status() } }
	setSession := func(u uint64) op { return func(p *Pair, _ *machine.T) { p.setSessionAt(u, p.lockAt[u]) } }
	cases := []struct {
		name        string
		write, read op
		commute     bool
	}{
		{"setEpoch/Epoch", setEpoch, func(p *Pair, _ *machine.T) { p.Nodes[0].Epoch() }, false},
		{"setEpoch/ping", setEpoch, ping, false},
		{"setSeq/ping", setSeq, ping, false},
		{"setSeq/Status", setSeq, status(0), false},
		{"SetPrimary/Status", func(p *Pair, _ *machine.T) { p.Nodes[0].SetPrimary(true) }, status(0), false},
		{"setResyncing/Status", func(p *Pair, _ *machine.T) { p.Nodes[1].setResyncing(false, 0) }, status(1), false},
		{"markResynced/Status", func(p *Pair, mt *machine.T) { p.Nodes[1].markResynced(mt) }, status(1), false},
		{"setStale/Status", func(p *Pair, _ *machine.T) { p.Nodes[0].setStale(false) }, status(0), false},
		{"setSessionAt/sessionAt", setSession(0), func(p *Pair, _ *machine.T) { p.sessionAt(0) }, false},
		{"another user's session", setSession(1), func(p *Pair, _ *machine.T) { p.sessionAt(0) }, true},
	}
	for _, c := range cases {
		rec := &machine.Recorder{}
		r := newPairRigOn(machine.Options{MaxSteps: 300000, Reducer: rec}, fault.Never{}, fault.Never{})
		var write, read [2]int
		res := r.m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
			p := r.build(mt)
			span := func(fn op, at *[2]int) {
				mt.StepDeclared("mark")
				at[0] = len(rec.Ran) // the transition the mark starts ends at the next draw
				fn(p, mt)
				mt.StepDeclared("mark")
				at[1] = len(rec.Ran)
			}
			span(c.write, &write)
			span(c.read, &read)
		})
		if res.Outcome != machine.Done {
			t.Fatalf("%s: era %+v", c.name, res)
		}
		w, rd := rec.Ran[write[0]:write[1]], rec.Ran[read[0]:read[1]]
		if got := slices.ContainsFunc(rd, func(a []machine.Access) bool { return conflicts(a, w) }); got == c.commute {
			t.Errorf("%s: conflict %v, want %v (write %v, read %v)", c.name, got, !c.commute, w, rd)
		}
	}
}

// TestPairBothDeadPickupRefuses: with both stores fail-stopped, Pickup
// reports ok=false (no answer, no spec transition) instead of serving
// an untrustworthy listing.
func TestPairBothDeadPickupRefuses(t *testing.T) {
	r := newPairRig(fault.Never{}, fault.Never{})
	res := r.m.RunEra(machine.NewRandChooser(1), false, func(mt *machine.T) {
		p := r.build(mt)
		if ok, _ := p.Deliver(mt, 0, []byte("x")); !ok {
			mt.Failf("deliver")
		}
		r.f[0].FailStopNow("test")
		r.f[1].FailStopNow("test")
		if _, ok := p.Pickup(mt, 0); ok {
			mt.Failf("pickup served with both stores dead")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
}

// netChooser answers c at "net" decision points and 0 everywhere else,
// steering fault injection without perturbing scheduling choices.
func netChooser(c int) machine.ChooserFunc {
	return func(n int, tag string) int {
		if tag == "net" && c < n {
			return c
		}
		return 0
	}
}

// TestUnknownRetryIdempotent forces the first replication call's reply
// to drop (outcome Unknown) and expects the retry under the same
// sequence number to resolve as a duplicate: exactly one copy lands on
// each store.
func TestUnknownRetryIdempotent(t *testing.T) {
	netPol := &fault.Chooser{Budget: 1, Eligible: fault.Classes(fault.DropReply)}
	r := newPairRig(fault.Never{}, netPol)
	res := r.m.RunEra(netChooser(1), false, func(mt *machine.T) {
		p := r.build(mt)
		if ok, _ := p.Deliver(mt, 0, []byte("once")); !ok {
			mt.Failf("deliver")
		}
		r.userEqual(mt)
		msgs, ok := p.Pickup(mt, 0)
		if !ok || len(msgs) != 1 {
			mt.Failf("want exactly one copy, got %v", msgs)
		}
		p.Unlock(mt, 0)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	_, faults := r.net.Counters()
	if faults[fault.DropReply] != 1 {
		t.Fatalf("drop-reply not injected: %v", faults)
	}
}

// TestBackoffDelayCap pins the retry pacing edge (satellite: backoff
// cap respected): exponential growth from RetryBackoff, clamped at the
// one-second mailboat.BackoffCap.
func TestBackoffDelayCap(t *testing.T) {
	nd := &Node{cfg: Config{RetryBackoff: 150 * time.Millisecond}}
	want := []time.Duration{150, 300, 600, 1000, 1000, 1000}
	for i, w := range want {
		if got := nd.backoffDelay(i + 1); got != w*time.Millisecond {
			t.Fatalf("attempt %d: %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	nd = &Node{cfg: Config{RetryBackoff: 400 * time.Millisecond}}
	for attempt := 1; attempt <= 20; attempt++ {
		if got := nd.backoffDelay(attempt); got > time.Second {
			t.Fatalf("attempt %d exceeds the cap: %v", attempt, got)
		}
	}
	if (&Node{}).backoffDelay(5) != 0 {
		t.Fatal("zero base must disable pacing")
	}
}

// lostTransport is a native stub peer whose calls always definitely
// fail.
type lostTransport struct{ calls int }

func (l *lostTransport) Call(t gfs.T, req []byte) ([]byte, netmodel.Outcome) {
	l.calls++
	return nil, netmodel.Lost
}

// nativeNode builds a real-filesystem Node for the native-edge tests.
func nativeNode(t *testing.T, cfg Config) (*gfs.Native, *Node) {
	t.Helper()
	mcfg := mailboat.Config{Users: 1, RandBound: 64}
	sys, err := gfs.NewOS(t.TempDir(), ReplDirs(mcfg))
	if err != nil {
		t.Fatal(err)
	}
	nt := gfs.NewNative(1)
	mb := mailboat.Init(nt, nil, sys, mcfg)
	return nt, NewNode(nt, 0, mb, sys, cfg)
}

// TestShutdownStopsRetries pins the satellite edge: a retry loop parked
// on backoff observes Shutdown and aborts instead of sleeping through
// its retry budget, which at a one-second backoff runs for seconds. The
// answer must come within half a second, well inside the pause it was
// parked on, so a loop that noticed Shutdown only between pauses fails.
func TestShutdownStopsRetries(t *testing.T) {
	nt, nd := nativeNode(t, Config{RetryBackoff: time.Second})
	tr := &lostTransport{}
	nd.SetPeer(tr)
	done := make(chan OpResult, 1)
	go func() {
		done <- nd.DeliverNamed(nt, 0, "msg1", []byte("x"))
	}()
	time.Sleep(30 * time.Millisecond)
	nd.Shutdown()
	select {
	case res := <-done:
		if res != OpFailed {
			t.Fatalf("result %v, want OpFailed", res)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("retry loop ignored Shutdown")
	}
}

// TestAllLostNeverAckBarrier pins the satellite edge: when every
// replication attempt definitely fails, the operation aborts with the
// LOCAL store untouched too — a failed replication RPC is never an ack
// barrier behind which a half-applied delivery hides.
func TestAllLostNeverAckBarrier(t *testing.T) {
	nt, nd := nativeNode(t, Config{})
	tr := &lostTransport{}
	nd.SetPeer(tr)
	if res := nd.DeliverNamed(nt, 0, "msg1", []byte("x")); res != OpFailed {
		t.Fatalf("result %v, want OpFailed", res)
	}
	if tr.calls != maxCallRetries {
		t.Fatalf("made %d calls, want %d", tr.calls, maxCallRetries)
	}
	if box := nd.Mailboat().ReadBox(nt, 0); len(box) != 0 {
		t.Fatalf("local store touched by failed replication: %v", box)
	}
}
