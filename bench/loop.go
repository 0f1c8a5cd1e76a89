package main

import (
	"errors"
	"sync"
	"time"

	"repro/internal/mailboat"
	"repro/internal/mailboatd"
)

// This file is the load generator: the closed loop (one client sends
// its next request when the previous one returns; slices of it
// alternate with yardstick samples) and the open loop (each client
// sends on a fixed schedule whatever the system does), with the sample
// bookkeeping both share. Everything that is the benchmark's own work —
// drawing the request, verifying bodies, updating the ledger — happens
// outside the timed window.

// mailClient is one client's handle on the system under test: an
// Adapter called directly, or an SMTP connection plus POP3 sessions.
type mailClient interface {
	// Deliver sends pool message msg (an index: clients hold the pool, so
	// any wire form is prepared in set-up, not per request).
	Deliver(user uint64, msg int) error
	Pickup(user uint64) ([]mailboat.Message, error)
	Delete(user uint64, id string) error
	// Unlock ends the session; over POP3 this is QUIT, which applies
	// the deletes and may report that some were refused.
	Unlock(user uint64) error
}

// directClient calls the store's entry points with no protocol.
type directClient struct {
	s    mailStore
	pool *msgPool
}

func (c directClient) Deliver(user uint64, msg int) error { return c.s.Deliver(user, c.pool.msgs[msg]) }
func (c directClient) Pickup(user uint64) ([]mailboat.Message, error) {
	return c.s.Pickup(user)
}
func (c directClient) Delete(user uint64, id string) error { return c.s.Delete(user, id) }
func (c directClient) Unlock(user uint64) error            { c.s.Unlock(user); return nil }

// noopClient is the no-op backend the open-loop schedule is calibrated
// against: every request returns at once, so what the generator then
// reports is its own floor.
type noopClient struct{}

func (noopClient) Deliver(uint64, int) error                 { return nil }
func (noopClient) Pickup(uint64) ([]mailboat.Message, error) { return nil, nil }
func (noopClient) Delete(uint64, string) error               { return nil }
func (noopClient) Unlock(uint64) error                       { return nil }

// refusal classifies a failed request.
type refusal int

const (
	refNone      refusal = iota
	refTransient         // ErrTransient, SMTP 451, POP3 -ERR [SYS/TEMP]
	refShed              // ErrOverloaded / ErrNoSpace, SMTP 452
	refError             // anything else: I/O error, protocol violation
)

// replyError is a refusal spoken by a protocol server.
type replyError struct{ reply string }

func (e *replyError) Error() string { return "server replied " + e.reply }

func classify(err error) refusal {
	var re *replyError
	switch {
	case err == nil:
		return refNone
	case errors.Is(err, mailboatd.ErrTransient):
		return refTransient
	case errors.Is(err, mailboatd.ErrOverloaded), errors.Is(err, mailboatd.ErrNoSpace):
		return refShed
	case errors.As(err, &re):
		if len(re.reply) >= 3 && re.reply[:3] == "452" {
			return refShed
		}
		return refTransient
	}
	return refError
}

// mailEnv is what a run's clients share.
type mailEnv struct {
	pool   *msgPool
	ledger *ledger // nil for the no-op calibration
}

// clientStats is one client's samples and counts for one phase.
type clientStats struct {
	lat    [numOpKinds][]int64 // latency samples per request kind, ns
	at     [numOpKinds][]int32 // per sample: the slice it completed in, -1 past the last
	slices []int64             // verified completions per slice

	// Closed loop only, per slice: how long the slice really ran, and
	// the yardstick scale of the two samples around it.
	elapsed []time.Duration
	scale   []float64

	attempted, failed                int64
	errs, transient, shed, badHashes int64
	overLimit                        int64
	delivers, sessions, msgs         int64
	userBytes                        int64

	// Open loop only.
	late        []int64  // timer lateness when the connection was free, ns
	backlogMax  int64    // most requests due but unsent at once
	backlogPart [3]int64 // the same per third of the step
}

func newClientStats(expect int, nSlices int) *clientStats {
	st := &clientStats{slices: make([]int64, nSlices)}
	for k := range st.lat {
		st.lat[k] = make([]int64, 0, expect)
	}
	return st
}

// record enters one verified request: its latency, and its completion
// in slice k (k past the last slice counts in no slice — the request
// outlived the measured phase).
func (st *clientStats) record(kind opKind, lat time.Duration, k int) {
	if k < 0 || k >= len(st.slices) {
		k = -1
	} else {
		st.slices[k]++
	}
	st.lat[kind] = append(st.lat[kind], int64(lat))
	st.at[kind] = append(st.at[kind], int32(k))
}

// session is what doOp brings back from the system for settle.
type session struct {
	msgs    []mailboat.Message
	deleted []bool // per message: its delete was acked
	err     error
}

// doOp performs the request's calls into the system and nothing else;
// it runs inside the timed window.
func doOp(c mailClient, o op) session {
	if o.kind == opDeliver {
		return session{err: c.Deliver(o.user, o.msg)}
	}
	msgs, err := c.Pickup(o.user)
	if err != nil {
		return session{err: err}
	}
	s := session{msgs: msgs}
	if o.kind == opDrain {
		s.deleted = make([]bool, len(msgs))
		for i, m := range msgs {
			if derr := c.Delete(o.user, m.ID); derr != nil {
				s.err = derr
			} else {
				s.deleted[i] = true
			}
		}
	}
	if uerr := c.Unlock(o.user); uerr != nil {
		// Over POP3 the deletes are applied at QUIT: a refusal there
		// means none of them can be trusted as acked.
		s.err = uerr
		s.deleted = nil
	}
	return s
}

// settle is the benchmark's own bookkeeping for a finished request:
// verify every body, enter acks in the ledger, count the outcome. It
// runs outside the timed window and reports whether the request counts
// as completed and verified.
func (st *clientStats) settle(env *mailEnv, o op, s session) bool {
	st.attempted++
	ok := true
	switch classify(s.err) {
	case refTransient:
		st.transient++
		ok = false
	case refShed:
		st.shed++
		ok = false
	case refError:
		st.errs++
		ok = false
	}
	if o.kind == opDeliver {
		if ok {
			st.delivers++
			st.userBytes += int64(len(env.pool.msgs[o.msg]))
			if env.ledger != nil {
				env.ledger.add(o.user, o.msg, 1)
			}
		}
	} else {
		st.sessions++
		for i, m := range s.msgs {
			st.msgs++
			st.userBytes += int64(len(m.Contents))
			idx, good := env.pool.verify(m.Contents)
			if !good {
				st.badHashes++
				ok = false
				continue
			}
			if s.deleted != nil && s.deleted[i] && env.ledger != nil {
				env.ledger.add(o.user, idx, -1)
			}
		}
	}
	if !ok {
		st.failed++
	}
	return ok
}

// settleUnmeasured settles a warm-up request: its acks enter the ledger
// and a failure is still a failure, but it adds no sample and does not
// count toward the measured phase's request totals.
func (st *clientStats) settleUnmeasured(env *mailEnv, o op, s session) {
	var w clientStats
	w.settle(env, o, s)
	st.attempted += w.attempted
	st.failed += w.failed
	st.errs += w.errs
	st.transient += w.transient
	st.shed += w.shed
	st.badHashes += w.badHashes
}

// closedLoop runs one client in a closed loop: an unmeasured warm-up,
// then nSlices measured slices of the given width with a yardstick
// sample before the first, between every two and after the last. One
// client, on one P: on this two-vCPU sandbox a second client measures
// how long a halted vCPU takes to wake, which swings tenfold from one
// minute to the next (README, "Steadiness"). do performs one request
// and nothing else; a request belongs to the slice it started in. With
// sliceOps > 0 a slice is that many requests long instead of width.
func closedLoop(do func(op) session, g *opGen, env *mailEnv, y *yard, warm time.Duration, nSlices int, width time.Duration, sliceOps int) *clientStats {
	st := newClientStats(1<<16, nSlices)
	st.elapsed, st.scale = make([]time.Duration, nSlices), make([]float64, nSlices)
	for end := time.Now().Add(warm); time.Now().Before(end); {
		o := g.next()
		st.settleUnmeasured(env, o, do(o))
	}
	y0 := y.before()
	for k := 0; k < nSlices; k++ {
		begin := time.Now()
		end := begin.Add(width)
		for n := 0; n < sliceOps || (sliceOps <= 0 && time.Now().Before(end)); n++ {
			o := g.next()
			t0 := time.Now()
			s := do(o)
			t1 := time.Now()
			if st.settle(env, o, s) {
				st.record(o.kind, t1.Sub(t0), k)
			}
		}
		st.elapsed[k] = time.Since(begin)
		y1 := y.sample()
		st.scale[k] = y.scaleOf(y0, y1)
		y0 = y1
	}
	return st
}

// latencyFrom is the open-loop timing rule. A request due at `due`
// whose connection became free at `free`:
//
//   - free <= due: the generator sleeps until due and sends at `sent`
//     (a little late — timers are). Latency runs from the actual send;
//     sent-due is the generator's lateness, reported apart.
//   - free > due: the connection was still busy when the request fell
//     due. Latency runs from due: the stall is charged to the system,
//     because an independent user would have been waiting since then.
func latencyFrom(due, free, sent time.Time) (from time.Time, late time.Duration, wasFree bool) {
	if !free.After(due) {
		return sent, sent.Sub(due), true
	}
	return due, 0, false
}

// openStep is one fixed-rate step of the open loop.
type openStep struct {
	rate    int           // requests per second, all clients together
	warm    time.Duration // unmeasured lead-in at the same rate
	measure time.Duration
	slice   time.Duration             // slice width for the per-slice quantiles
	limits  [numOpKinds]time.Duration // per-kind latency limit; 0 = none
}

// interval is the time between two sends on one of n connections.
func (s openStep) interval(n int) time.Duration {
	return time.Duration(float64(time.Second) * float64(n) / float64(s.rate))
}

// openLoop drives the step's schedule: client i of n sends request k at
// begin + (k·n + i)/rate. Pacing is by sleeping, never spinning — two
// spinning generators on a two-core box would starve the servers under
// test.
func openLoop(clients []mailClient, gens []*opGen, env *mailEnv, step openStep) []*clientStats {
	n := len(clients)
	interval := step.interval(n)
	width := step.slice
	if width <= 0 {
		width = step.measure
	}
	nSlices := int(step.measure / width)
	stats := make([]*clientStats, n)
	start := time.Now().Add(10 * time.Millisecond)
	begin := start.Add(step.warm)
	end := begin.Add(step.measure)
	var wg sync.WaitGroup
	for i := range clients {
		stats[i] = newClientStats(int(step.measure/interval)+16, nSlices)
		wg.Add(1)
		go func(i int, c mailClient, g *opGen, st *clientStats) {
			defer wg.Done()
			first := start.Add(interval * time.Duration(i) / time.Duration(n))
			for k := 0; ; k++ {
				due := first.Add(interval * time.Duration(k))
				if !due.Before(end) {
					return
				}
				o := g.next()
				free := time.Now()
				if free.Before(due) {
					time.Sleep(due.Sub(free))
				}
				sent := time.Now()
				from, late, wasFree := latencyFrom(due, free, sent)
				s := doOp(c, o)
				t1 := time.Now()
				measured := !due.Before(begin)
				if !measured {
					st.settleUnmeasured(env, o, s)
					continue
				}
				if wasFree {
					st.late = append(st.late, int64(late))
				} else {
					backlog := int64(sent.Sub(due)/interval) + 1
					if backlog > st.backlogMax {
						st.backlogMax = backlog
					}
					third := int(3 * due.Sub(begin) / step.measure)
					if third > 2 {
						third = 2
					}
					if backlog > st.backlogPart[third] {
						st.backlogPart[third] = backlog
					}
				}
				ok := st.settle(env, o, s)
				lat := t1.Sub(from)
				if lim := step.limits[o.kind]; ok && lim > 0 && lat > lim {
					st.overLimit++
				}
				if ok {
					st.record(o.kind, lat, int(t1.Sub(begin)/width))
				}
			}
		}(i, clients[i], gens[i], stats[i])
	}
	wg.Wait()
	return stats
}

// phase is the per-phase merge of the clients' stats.
type phase struct {
	lat     [numOpKinds][]int64   // sorted
	bySlice [numOpKinds][][]int64 // per slice, sorted
	slices  []int64
	// Closed loop: per slice, its real length and yardstick scale; nil
	// for the open loop, whose slices have the step's fixed width and
	// whose figures are raw.
	elapsed []time.Duration
	scale   []float64

	attempted, failed                int64
	errs, transient, shed, badHashes int64
	overLimit                        int64
	delivers, sessions, msgs         int64
	userBytes                        int64

	late        []int64 // sorted
	backlogMax  int64
	backlogPart [3]int64
}

func mergeStats(stats []*clientStats) *phase {
	p := &phase{}
	for _, st := range stats {
		if len(p.slices) < len(st.slices) {
			p.slices = append(p.slices, make([]int64, len(st.slices)-len(p.slices))...)
			for k := range p.bySlice {
				p.bySlice[k] = append(p.bySlice[k], make([][]int64, len(p.slices)-len(p.bySlice[k]))...)
			}
		}
		for k := range st.lat {
			p.lat[k] = append(p.lat[k], st.lat[k]...)
			for i, at := range st.at[k] {
				if at >= 0 {
					p.bySlice[k][at] = append(p.bySlice[k][at], st.lat[k][i])
				}
			}
		}
		for i, c := range st.slices {
			p.slices[i] += c
		}
		if st.scale != nil {
			p.elapsed, p.scale = st.elapsed, st.scale
		}
		p.attempted += st.attempted
		p.failed += st.failed
		p.errs += st.errs
		p.transient += st.transient
		p.shed += st.shed
		p.badHashes += st.badHashes
		p.overLimit += st.overLimit
		p.delivers += st.delivers
		p.sessions += st.sessions
		p.msgs += st.msgs
		p.userBytes += st.userBytes
		p.late = append(p.late, st.late...)
		if st.backlogMax > p.backlogMax {
			p.backlogMax = st.backlogMax
		}
		for i, b := range st.backlogPart {
			if b > p.backlogPart[i] {
				p.backlogPart[i] = b
			}
		}
	}
	for k := range p.lat {
		p.lat[k] = sortedCopy(p.lat[k])
		for i := range p.bySlice[k] {
			p.bySlice[k][i] = sortedCopy(p.bySlice[k][i])
		}
	}
	p.late = sortedCopy(p.late)
	return p
}

// append adds q's samples and slices after p's: the segments of one
// phase, measured with bursts of other work between them.
func (p *phase) append(q *phase) {
	for k := range p.lat {
		p.lat[k] = sortedCopy(append(p.lat[k], q.lat[k]...))
		p.bySlice[k] = append(p.bySlice[k], q.bySlice[k]...)
	}
	p.slices = append(p.slices, q.slices...)
	p.elapsed = append(p.elapsed, q.elapsed...)
	p.scale = append(p.scale, q.scale...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.errs += q.errs
	p.transient += q.transient
	p.shed += q.shed
	p.badHashes += q.badHashes
	p.delivers += q.delivers
	p.sessions += q.sessions
	p.msgs += q.msgs
	p.userBytes += q.userBytes
}

// minPerSlice is how many samples a slice needs for its quantile to
// enter the median over slices.
const minPerSlice = 50

// scaleAt is slice i's yardstick scale; 1 where none was taken.
func (p *phase) scaleAt(i int) float64 {
	if i < len(p.scale) {
		return p.scale[i]
	}
	return 1
}

// sliceQuantile is the gated form of a latency quantile: the exact
// q-quantile of every slice's raw samples, stated at the reference host
// speed by the slice's yardstick scale, then the median over the
// slices. A whole-phase quantile moves with however much of the phase a
// fast or slow episode of the host covered; the median of normalised
// slices does not. n is the number of slices that had enough samples.
func (p *phase) sliceQuantile(kind opKind, q float64) (us float64, n int) {
	var per []float64
	for i, s := range p.bySlice[kind] {
		if len(s) >= minPerSlice {
			per = append(per, usOf(quantile(s, q))*p.scaleAt(i))
		}
	}
	if len(per) == 0 {
		// Too few samples to slice: fall back on the whole phase.
		return usOf(quantile(p.lat[kind], q)), 0
	}
	return medianFloat(per), len(per)
}

// throughput is the closed loop's gated rate: per slice, verified
// completions over the slice's real length, stated at the reference
// host speed; then the median slice.
func (p *phase) throughput() float64 {
	per := make([]float64, 0, len(p.slices))
	for i, c := range p.slices {
		if i < len(p.elapsed) && p.elapsed[i] > 0 {
			per = append(per, float64(c)/p.elapsed[i].Seconds()/p.scaleAt(i))
		}
	}
	return medianFloat(per)
}

// rawThroughput is the same without the yardstick.
func (p *phase) rawThroughput() float64 {
	var n int64
	var d time.Duration
	for i, c := range p.slices {
		if i < len(p.elapsed) {
			n, d = n+c, d+p.elapsed[i]
		}
	}
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// gatedLatencies reports the four gated latency metrics of a phase;
// pickup is the session kind pickup_* stands for on the workload.
func (p *phase) gatedLatencies(r *result, pickup opKind) {
	for _, g := range []struct {
		name string
		kind opKind
		q    float64
	}{{"deliver_p50_us", opDeliver, 0.50}, {"deliver_p99_us", opDeliver, 0.99},
		{"pickup_p50_us", pickup, 0.50}, {"pickup_p99_us", pickup, 0.99}} {
		v, _ := p.sliceQuantile(g.kind, g.q)
		r.e2e(g.name, v, int64(len(p.lat[g.kind])))
	}
}

// backlogGrowing reports whether the step ended with its backlog still
// rising: the last third's peak is at least twice either earlier
// third's and at least ten requests deep on one connection — the system
// was not keeping up.
func (p *phase) backlogGrowing() bool {
	last := p.backlogPart[2]
	return last >= 10 && last >= 2*max(p.backlogPart[0], p.backlogPart[1])
}

// requests is how many requests of all kinds completed verified.
func (p *phase) requests() int64 {
	var n int64
	for k := range p.lat {
		n += int64(len(p.lat[k]))
	}
	return n
}
