package main

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/postal"
)

// This file generates the mail workloads' inputs. Everything the system
// under test sees — which mailbox, which operation, which message body
// — is a pure function of (--seed, client index, request index), so two
// runs with one seed issue the identical request sequence per client
// and the system itself never sees the seed.

// opKind is one request type of the mail workloads. A session (drain
// or read) is one request, as in the paper's §9.3 mix.
type opKind uint8

const (
	// opDeliver is one SMTP-style delivery.
	opDeliver opKind = iota
	// opDrain is a POP3-style session: Pickup, Delete every message,
	// Unlock.
	opDrain
	// opRead is a read-only session: Pickup, Unlock, no delete.
	opRead
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"deliver", "drain", "read"}[k]
}

// op is one generated request.
type op struct {
	kind opKind
	user uint64
	msg  int // pool index of the body (deliveries only)
}

// sizeClass is one step of the message-size distribution. The three
// classes straddle gfs.ReadChunk (512) and gfs.MaxAppend (4096), so a
// pickup of the smallest message is one read and of the largest 33,
// and a delivery of the largest is five appends.
type sizeClass struct {
	bytes int
	share float64
}

var sizeClasses = []sizeClass{
	{256, 0.50},
	{2 << 10, 0.35},
	{16 << 10, 0.15},
}

// msgPool is the set of message bodies a run delivers. Bodies are
// composed once, in set-up, because composing a 16 KiB body draws 16k
// random letters — in a closed loop that think time would throttle the
// offered load and the benchmark would measure its own generator.
// Every body carries postal's rabid-style X-Hash header; a picked-up
// message is verified by finding the pool entry its header names and
// comparing every byte, which is stronger than re-hashing and costs a
// memcmp.
type msgPool struct {
	msgs     [][]byte
	perClass int
	byHash   map[string]int // the 16 hex digits of X-Hash -> pool index
}

const hashHeader = "X-Hash: "

func newMsgPool(seed int64, perClass int) *msgPool {
	rng := rand.New(rand.NewSource(seed ^ 0x6d73677e))
	p := &msgPool{perClass: perClass, byHash: map[string]int{}}
	for _, c := range sizeClasses {
		for i := 0; i < perClass; {
			m := postal.Compose(rng, c.bytes)
			if !postal.Verify(string(m)) {
				panic("bench: postal.Compose produced a message postal.Verify rejects")
			}
			key := string(m[len(hashHeader) : len(hashHeader)+16])
			if _, dup := p.byHash[key]; dup {
				continue // astronomically unlikely; draw again
			}
			p.byHash[key] = len(p.msgs)
			p.msgs = append(p.msgs, m)
			i++
		}
	}
	return p
}

// verify reports which pool message contents is, byte for byte.
func (p *msgPool) verify(contents string) (int, bool) {
	if len(contents) < len(hashHeader)+16 || contents[:len(hashHeader)] != hashHeader {
		return 0, false
	}
	i, ok := p.byHash[contents[len(hashHeader):len(hashHeader)+16]]
	if !ok || contents != string(p.msgs[i]) {
		return 0, false
	}
	return i, true
}

// draw picks a body: a size class by its share, then uniformly within
// the class.
func (p *msgPool) draw(rng *rand.Rand) int {
	x := rng.Float64()
	class := len(sizeClasses) - 1
	for c, sc := range sizeClasses {
		if x < sc.share {
			class = c
			break
		}
		x -= sc.share
	}
	return class*p.perClass + rng.Intn(p.perClass)
}

// opMix is the share of deliveries and read sessions; the remainder is
// drain sessions.
type opMix struct{ deliver, read float64 }

// opGen draws one client's request sequence. The mailbox comes from
// postal.Sampler (uniform or zipfian with the run's rank rotation); op
// and body come from the sampler's own stream so the whole sequence is
// one deterministic draw order.
type opGen struct {
	s    *postal.Sampler
	mix  opMix
	pool *msgPool
}

func newOpGen(w postal.Workload, mix opMix, pool *msgPool, seed int64, client int) *opGen {
	return &opGen{s: postal.NewSampler(w, seed, client), mix: mix, pool: pool}
}

func (g *opGen) next() op {
	rng := g.s.Rng()
	x := rng.Float64()
	o := op{user: g.s.NextUser()}
	switch {
	case x < g.mix.deliver:
		o.kind, o.msg = opDeliver, g.pool.draw(rng)
	case x < g.mix.deliver+g.mix.read:
		o.kind = opRead
	default:
		o.kind = opDrain
	}
	return o
}

// ledger is what the benchmark holds as acked-and-not-deleted: per
// mailbox, how many copies of each pool message. A delivery is entered
// when its ack returns and a delete when its ack returns, both outside
// any timed window; the reopen audit compares a full Pickup scan with
// it. Counters are atomic because any client may deliver to any
// mailbox.
type ledger struct {
	pool  *msgPool
	users uint64
	n     []atomic.Int32 // users × len(pool.msgs)
}

func newLedger(pool *msgPool, users uint64) *ledger {
	return &ledger{pool: pool, users: users, n: make([]atomic.Int32, int(users)*len(pool.msgs))}
}

func (l *ledger) add(user uint64, msg int, delta int32) {
	l.n[int(user)*len(l.pool.msgs)+msg].Add(delta)
}

// liveBytes is the exact byte count of user messages the store owes.
func (l *ledger) liveBytes() (msgs, bytes int64) {
	k := len(l.pool.msgs)
	for i := range l.n {
		c := int64(l.n[i].Load())
		msgs += c
		bytes += c * int64(len(l.pool.msgs[i%k]))
	}
	return msgs, bytes
}

// auditBox compares one mailbox's scan (pool indices of the messages a
// Pickup returned; unverifiable ones are the caller's phantoms) with
// the ledger.
func (l *ledger) auditBox(user uint64, found []int) (lost, phantom int64) {
	k := len(l.pool.msgs)
	got := make(map[int]int32, len(found))
	for _, i := range found {
		got[i]++
	}
	base := int(user) * k
	for i := 0; i < k; i++ {
		want := l.n[base+i].Load()
		switch have := got[i]; {
		case have < want:
			lost += int64(want - have)
		case have > want:
			phantom += int64(have - want)
		}
	}
	return lost, phantom
}
