package explore

import (
	"slices"

	"repro/internal/machine"
)

// Race analysis and wakeup trees (DESIGN.md "Source sets and wakeup
// trees"; Abdulla, Aronis, Jonsson and Sagonas, "Optimal Dynamic Partial
// Order Reduction", POPL 2014). Every transition an execution runs is an
// event with a vector clock over its era's threads: it happens after
// its thread's previous event, after the event that spawned its thread,
// and after every earlier event whose footprint conflicts with its own.
// Eras do not share clocks: an era's first draw comes after everything
// before it. Two events race when they conflict, run on different
// threads, and the later comes after the earlier through no third. When
// an era ends, each race (e, e') found among its new events is reversed:
// the wakeup sequence notdep(e)·e' — the events after e that do not
// happen after it, then e' — goes into the wakeup tree of e's draw,
// unless a thread asleep there, or a branch of the tree, already covers
// it.
//
// A crash is dependent with every transition. An era that may crash
// takes the crash option at every draw; a crash — taken, skipped because
// other prefixes own its states, or at the end of an era that ran to
// completion — races with each last event e of a thread that no other
// event comes after, and its reversal is the rest of the era without e.
// It has no e', because the crash itself is never put in a tree: the
// draw the sequence leads to offers it. Those reversals need the state
// itself, not an execution equivalent to it, so they are covered only by
// a sleeping thread or a branch that is an initial of the sequence.
//
// Data choices ("fault", "rand", "diskfail", ...) stay ordinary choice
// points. A branch replays each of its events with the answers they had,
// so the first execution of a branch takes the recorded answer at each
// data point; the DFS then goes round the point's other options, whose
// executions are fresh. Those are the one place a draw can still find
// every thread asleep: with another answer, no later event may conflict
// with the thread the branch was to wake. Events are kept on a stack
// that grows and shrinks with the choice points, with their clocks and a
// per-object index of their accesses, so an execution computes clocks
// and races only for the events past its frontier: those it replays were
// analysed when they were new.

// event is one transition of an execution.
type event struct {
	tid, spawned machine.TID // spawned is -1 when it spawned none
	global       bool
	// pt is the "sched" point that chose it (-1: none), end the point of
	// the draw that ended it; its data choices are points pt+1..end-1.
	pt, end int32
	// recs[recLo:recHi] are its accesses and vcs[vc:vc+vn] its clock:
	// the number of each thread's events that happen before it or are it.
	recLo, recHi, vc, vn int32
}

// access is one access of an event, chained to the previous access of
// its object on the stack and to the latest before it in another mode,
// or a write: the accesses in between commute with every access that
// this one commutes with.
type access struct {
	acc            machine.Access
	ev, prev, skip int32
}

// race is a race an execution found, to reverse when its era ends: b,
// of another thread, conflicts with a and happens after it through no
// third event.
type race struct{ a, b int32 }

// answer is a data choice of a wakeup-tree event: n options, chosen c.
type answer struct{ n, c int32 }

// wnode is a wakeup-tree branch: an event to run, by thread, with the
// answers and footprint it had in the execution that found it, and the
// branches to explore after it.
type wnode struct {
	tid    machine.TID
	global bool
	acc    []machine.Access
	ans    []answer
	kids   []*wnode
}

// dropReversal, when a test sets it, mutates the rule: a reversal the
// trees do not cover yet is dropped, not inserted, when it returns true.
var dropReversal func() bool

// races is a dfsChooser's race analysis.
type races struct {
	evs  []event
	recs []access
	vcs  []int32
	objs map[machine.Obj]int32 // each object's latest access on recs, -1: none

	// Per execution: nev events were reported so far, the first keep of
	// them replayed, and eraLo is the running era's first. last and
	// spawner give each thread of the running era its latest event and
	// the event that spawned it, lastG is its latest global event, and
	// stale says they are to be rebuilt from its events. found are the
	// races its new events ran into.
	nev, keep, eraLo int
	last, spawner    []int32
	lastG            int32
	stale            bool
	found            []race

	// gnode is the wakeup-tree event running: its data choices from the
	// gans-th on take its answers, and the next fresh "sched" point
	// explores its branches.
	gnode *wnode
	gans  int

	clock, cands, heads, seq []int32
}

// startEra notes an era's first draw.
func (d *dfsChooser) startEra() {
	d.eraLo, d.stale, d.found = d.nev, true, d.found[:0]
}

// rebuild recomputes the running era's per-thread state from its events.
func (d *dfsChooser) rebuild() {
	d.stale = false
	d.last, d.spawner, d.lastG = d.last[:0], d.spawner[:0], -1
	for x := d.eraLo; x < len(d.evs); x++ {
		d.note(int32(x))
	}
}

// note enters event x into the running era's per-thread state.
func (d *dfsChooser) note(x int32) {
	e := &d.evs[x]
	d.grow(e.tid)
	d.last[e.tid] = x
	if e.spawned >= 0 {
		d.grow(e.spawned)
		d.spawner[e.spawned] = x
	}
	if e.global {
		d.lastG = x
	}
}

// grow makes room for thread tid in the per-thread state.
func (d *dfsChooser) grow(tid machine.TID) {
	for len(d.last) <= int(tid) {
		d.last, d.spawner = append(d.last, -1), append(d.spawner, -1)
	}
}

// vc returns event x's clock.
func (d *dfsChooser) vc(x int32) []int32 {
	e := &d.evs[x]
	return d.vcs[e.vc : e.vc+e.vn]
}

// hb reports whether event a happens before event x.
func (d *dfsChooser) hb(a, x int32) bool {
	t := int32(d.evs[a].tid)
	ex := &d.evs[x]
	return t < ex.vn && d.vcs[ex.vc+t] >= d.vcs[d.evs[a].vc+t]
}

// record is Sched's: ran, the transition the draw ends, is an event. A
// replayed one is on the stack already; a new one gets its clock, and
// its races go to found.
func (d *dfsChooser) record(ran *machine.Transition) {
	if d.nev < len(d.evs) {
		d.nev++
		return
	}
	if d.stale {
		d.rebuild()
	}
	j := int32(len(d.evs))
	tid := ran.Thread()
	d.grow(tid)
	e := event{tid: tid, spawned: -1, global: ran.Global(), pt: int32(d.lastSched), end: int32(d.pos),
		recLo: int32(len(d.recs)), recHi: int32(len(d.recs))}
	if len(d.last) == 1 {
		// The era's only thread so far: every later event comes after
		// this one, by its thread or by the spawn of its own, so it needs
		// no index and races with none.
		e.vc, e.vn = int32(len(d.vcs)), 1
		d.vcs = append(d.vcs, int32(j-int32(d.eraLo))+1)
		if c, ok := ran.Spawned(); ok {
			e.spawned = c
		}
		d.evs = append(d.evs, e)
		d.nev++
		d.note(j)
		return
	}
	if c, ok := ran.Spawned(); ok {
		e.spawned = c
		d.grow(c)
	}

	k := d.clock[:0]
	for range d.last {
		k = append(k, 0)
	}
	prev := d.last[tid]
	if from := prev; from >= 0 || d.spawner[tid] >= 0 {
		if from < 0 {
			from = d.spawner[tid]
		}
		for t, c := range d.vc(from) {
			k[t] = c
		}
	}
	// Events at or before the era's latest global event happen before
	// it, and it before ran.
	lo := max(int32(d.eraLo), d.lastG)
	cands, heads := d.cands[:0], d.heads[:0]
	if e.global {
		for x := j - 1; x >= lo; x-- {
			cands = append(cands, x)
		}
	} else {
		if d.lastG >= 0 {
			cands = append(cands, d.lastG)
		}
		if d.objs == nil {
			d.objs = map[machine.Obj]int32{}
		}
		for _, a := range ran.Accesses() {
			r, ok := d.objs[a.Obj()]
			if !ok {
				r = -1
			}
			heads = append(heads, r)
			for r >= 0 && d.recs[r].ev >= lo {
				b := d.recs[r].acc
				if a.Conflicts(b) {
					cands = append(cands, d.recs[r].ev)
					r = d.recs[r].prev
				} else {
					r = d.recs[r].skip
				}
				if b.Mode() == machine.Write {
					break
				}
			}
		}
		if len(cands) > 1 {
			slices.SortFunc(cands, func(x, y int32) int { return int(y - x) })
			cands = slices.Compact(cands)
		}
	}
	for _, x := range cands {
		t := d.evs[x].tid
		if t == tid {
			continue
		}
		c := d.vc(x)
		if k[t] >= c[t] {
			continue // it happens before an event that happens before ran
		}
		d.found = append(d.found, race{x, j})
		for u, cu := range c {
			k[u] = max(k[u], cu)
		}
	}
	if prev >= 0 {
		k[tid] = d.vc(prev)[tid] + 1
	} else {
		k[tid] = 1
	}
	e.vc, e.vn = int32(len(d.vcs)), int32(len(k))
	d.vcs = append(d.vcs, k...)
	d.clock, d.cands, d.heads = k, cands, heads

	if !e.global {
		for i, a := range ran.Accesses() {
			h := heads[i]
			for r := int32(len(d.recs)) - 1; r >= e.recLo; r-- {
				if d.recs[r].acc.Obj() == a.Obj() {
					h = r // the event touches the object in two modes
					break
				}
			}
			skip := h
			if h >= 0 && d.recs[h].acc == a && a.Mode() != machine.Write {
				skip = d.recs[h].skip
			}
			d.recs = append(d.recs, access{acc: a, ev: j, prev: h, skip: skip})
			d.objs[a.Obj()] = int32(len(d.recs) - 1)
		}
	}
	e.recHi = int32(len(d.recs))
	d.evs = append(d.evs, e)
	d.nev++
	d.note(j)
}

// trimEvents drops the events that do not end at or before point i.
func (d *dfsChooser) trimEvents(i int) {
	n := len(d.evs)
	for n > 0 && d.evs[n-1].end > int32(i) {
		n--
	}
	if n == len(d.evs) {
		return
	}
	lo := d.evs[n].recLo
	for r := int32(len(d.recs)) - 1; r >= lo; r-- {
		d.objs[d.recs[r].acc.Obj()] = d.recs[r].prev
	}
	d.recs, d.vcs, d.evs = d.recs[:lo], d.vcs[:d.evs[n].vc], d.evs[:n]
}

// endEra reverses the races the era's new events ran into and, when
// crashed says the era ended in a crash it has not analysed before, the
// crash's.
func (d *dfsChooser) endEra(crashed bool) {
	hi := int32(len(d.evs))
	for _, r := range d.found {
		d.reverse(r.a, r.b, hi)
	}
	d.found = d.found[:0]
	if !crashed {
		return
	}
	if d.stale {
		d.rebuild()
	}
	for _, l := range d.last {
		if l >= 0 && l < hi-1 && d.maximal(l) {
			d.reverse(l, -1, hi)
		}
	}
}

// crashed is next() skipping the crash option of point i, whose crash
// states other prefixes own: it runs no execution, but the crash still
// races with the events before it.
func (d *dfsChooser) crashed(i int) {
	if s := d.sched(&d.points[i]); s != nil && int(s.era) < len(d.evs) {
		d.eraLo, d.stale = int(s.era), true
		d.endEra(true)
	}
}

// maximal reports whether no event of another thread comes after l, the
// last of its own.
func (d *dfsChooser) maximal(l int32) bool {
	for _, x := range d.last {
		if x >= 0 && x != l && d.hb(l, x) {
			return false
		}
	}
	return true
}

// reverse inserts the reversal of the race (a, b) — b -1 for the crash —
// into the wakeup tree of a's draw, in an era whose events end at hi.
func (d *dfsChooser) reverse(a, b, hi int32) {
	pt := d.evs[a].pt
	if pt < 0 {
		return
	}
	s := d.sched(&d.points[pt])
	if s == nil {
		return
	}
	v := d.seq[:0]
	for x := a + 1; x < hi; x++ {
		if x != b && !d.hb(a, x) {
			v = append(v, x)
		}
	}
	if b >= 0 {
		v = append(v, b)
	}
	d.seq = v
	if len(v) > 0 {
		d.insert(s, v, b < 0)
	}
}

// insert adds the wakeup sequence v, events of the running execution,
// to s's tree unless s's sleep set or tree covers it. A branch or a
// sleeping thread covers it when its thread's first event in v happens
// after no other event of v or, unless strict, when the thread does not
// run in v and its transition commutes with all of v.
func (d *dfsChooser) insert(s *schedPoint, v []int32, strict bool) {
	for _, q := range d.sl[s.sleepLo:s.doneHi] {
		if d.covers(q.tid, q.global, d.acc[q.lo:q.hi], v, strict) >= -1 {
			return
		}
	}
	kids := &s.wut
next:
	for {
		for _, w := range *kids {
			switch i := d.covers(w.tid, w.global, w.acc, v, strict); {
			case i < -1:
				continue
			case i >= 0 && !d.sameAnswers(w, v[i]):
				// The branch's data point goes round every answer of
				// the event, the others fresh.
				return
			case i >= 0:
				v = slices.Delete(v, i, i+1)
			}
			if len(w.kids) == 0 || len(v) == 0 {
				return
			}
			kids = &w.kids
			continue next
		}
		break
	}
	if kids == &s.wut && !slices.Contains(d.tids[s.tidLo:s.tidHi], d.evs[v[0]].tid) {
		return // its first thread cannot run here
	}
	if dropReversal != nil && dropReversal() {
		return
	}
	*kids = append(*kids, d.chain(v))
}

// covers reports how a transition of thread tid with the given
// footprint covers v: the index in v of the thread's first event when
// it is an initial of v, -1 when the thread does not run in v and
// (unless strict) the transition commutes with all of v, and -2 when
// it does not cover v.
func (d *dfsChooser) covers(tid machine.TID, global bool, acc []machine.Access, v []int32, strict bool) int {
	for i, x := range v {
		if d.evs[x].tid != tid {
			continue
		}
		for _, y := range v[:i] {
			if d.hb(y, x) {
				return -2
			}
		}
		return i
	}
	if strict || global {
		return -2
	}
	for _, x := range v {
		if e := &d.evs[x]; e.global || d.conflicts(acc, e) {
			return -2
		}
	}
	return -1
}

// conflicts reports whether an access of acc conflicts with one of e's.
func (d *dfsChooser) conflicts(acc []machine.Access, e *event) bool {
	for _, r := range d.recs[e.recLo:e.recHi] {
		for _, a := range acc {
			if a.Conflicts(r.acc) {
				return true
			}
		}
	}
	return false
}

// dataPoints returns event x's data choices.
func (d *dfsChooser) dataPoints(x int32) []choicePoint {
	e := &d.evs[x]
	if e.pt < 0 {
		return nil
	}
	return d.points[e.pt+1 : e.end]
}

// sameAnswers reports whether event x took w's data answers.
func (d *dfsChooser) sameAnswers(w *wnode, x int32) bool {
	pts := d.dataPoints(x)
	if len(pts) != len(w.ans) {
		return false
	}
	for i, p := range pts {
		if int(w.ans[i].c) != p.chosen {
			return false
		}
	}
	return true
}

// chain returns v as a branch: each event with the next as its one
// branch. The nodes, their footprints, answers and branch lists are
// allocated together.
func (d *dfsChooser) chain(v []int32) *wnode {
	nacc, nans := 0, 0
	for _, x := range v {
		nacc += int(d.evs[x].recHi - d.evs[x].recLo)
		nans += len(d.dataPoints(x))
	}
	ws, kids := make([]wnode, len(v)), make([]*wnode, len(v))
	acc, ans := make([]machine.Access, 0, nacc), make([]answer, 0, nans)
	for i, x := range v {
		e := &d.evs[x]
		w := &ws[i]
		w.tid, w.global = e.tid, e.global
		lo := len(acc)
		for _, r := range d.recs[e.recLo:e.recHi] {
			acc = append(acc, r.acc)
		}
		w.acc = acc[lo:len(acc):len(acc)]
		lo = len(ans)
		for _, p := range d.dataPoints(x) {
			ans = append(ans, answer{n: int32(p.n), c: int32(p.chosen)})
		}
		w.ans = ans[lo:len(ans):len(ans)]
		if i > 0 {
			kids[i-1] = w
			ws[i-1].kids = kids[i-1 : i : i]
		}
	}
	return &ws[0]
}

// follow makes p, a fresh "sched" point with ready threads, explore the
// guide first: its first branch whose thread is ready is p's first
// option, and the others are p's tree.
func (d *dfsChooser) follow(p *schedPoint, ready []machine.TID) {
	var g []*wnode
	if w := d.gnode; w != nil && d.gans == len(w.ans) {
		g = w.kids // else the transition took fewer data choices than it did
	}
	d.gnode = nil
	for k, w := range g {
		if i := slices.Index(ready, w.tid); i >= 0 {
			p.first = i
			d.gnode, d.gans = w, 0
			for _, o := range g[k+1:] {
				if slices.Contains(ready, o.tid) {
					p.wut = append(p.wut, o)
				}
			}
			return
		}
	}
}
