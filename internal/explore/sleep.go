package explore

import (
	"slices"

	"repro/internal/machine"
)

// Sleep sets (DESIGN.md "Sleep sets"), Godefroid's partial-order
// reduction over the footprints the machine reports at each "sched"
// draw. A transition is a thread's step plus the Go code it runs up to
// its next draw; two transitions are independent when no access of one
// conflicts with an access of the other (machine.Access.Conflicts). At
// a point, once an option's subtree is finished, its thread sleeps in
// the subtrees of the options explored after it, for as long as the
// transitions run there are independent of its own: any execution that
// runs it there is a reordering of one already explored. An option whose
// thread sleeps is skipped, never removed, so every choice index keeps
// its meaning; the crash option never sleeps. When every option of a
// draw sleeps and none crashes, the execution stops there, unchecked
// (Stats.SleepBlocked).
//
// The entries live on three stacks that grow and shrink with the choice
// points: a point's threads, inherited entries and finished options lie
// above its parent's, and the first-transition footprints the entries
// point at lie in acc.

// sleeper is one sleep-set entry: a thread, and the footprint of the
// transition it would run, accumulated over every execution of the
// subtree where it ran first.
type sleeper struct {
	tid    machine.TID
	global bool
	lo, hi int32 // its accesses: acc[lo:hi]
}

// schedPoint is a "sched" point's part of the sleep sets, and of
// dedup, kept beside the choice points so that replaying them walks no
// more memory than before.
type schedPoint struct {
	// on marks sleepSets.pend as prepared for Choose.
	on bool
	// first is the option a fresh point takes: its first awake thread,
	// or the crash option.
	first int
	// nth is the number of thread options; option nth, when offered,
	// crashes. Option i runs thread tids[tidLo+i].
	nth          int
	tidLo, tidHi int32
	// sl[sleepLo:sleepHi] is the inherited sleep set and
	// sl[sleepHi:doneHi] the options finished here.
	sleepLo, sleepHi, doneHi int32
	// acc[curLo:curHi] is the chosen option's first-transition
	// footprint over the executions of its subtree so far; curGlobal
	// once it is global or not fully known.
	curLo, curHi int32
	curGlobal    bool
	// leaves[leafLo:leafHi] are the crash states evaluated here (dedup.go)
	// and cur the one the crash option runs, -1 before it does; due
	// says the next execution evaluates them when it replays the point.
	leafLo, leafHi, cur int32
	due                 bool
}

// maxCur bounds an option's accumulated footprint; a larger one is
// global.
const maxCur = 64

// sleepSets is a dfsChooser's reduction state.
type sleepSets struct {
	scheds []schedPoint
	tids   []machine.TID
	sl     []sleeper
	acc    []machine.Access

	// Per execution: lastSched is the era's latest "sched" point, and
	// open that point while the first transition of the thread it chose
	// runs unreported (-1 when none). Choices at or after frontier are
	// new in this execution. nready is the last draw's thread count.
	// pend is the fresh point Sched prepared for Choose.
	lastSched, open int
	frontier        int
	nready          int
	pend            schedPoint

	slept, blocked int
}

// Sched implements machine.Reducer.
func (d *dfsChooser) Sched(ran *machine.Footprint, ready []machine.TID, crash bool) bool {
	if ran == nil {
		d.lastSched, d.open = -1, -1
	} else if d.open >= 0 {
		// A transition is the same every time its choices are replayed,
		// so only a new one can add to the footprint.
		if d.pos > d.frontier {
			d.fold(d.sched(&d.points[d.open]), ran)
		}
		d.open = -1
	}
	d.nready = len(ready)
	if len(ready) == 0 {
		return true
	}
	if d.pos < len(d.points) {
		if s := d.sched(&d.points[d.pos]); s != nil && s.due {
			s.due = false
			d.evaluate(s, false)
		}
		return true
	}
	p := &d.pend
	*p = schedPoint{on: true, nth: len(ready), tidLo: int32(len(d.tids)), cur: -1}
	p.leafLo, p.leafHi = int32(len(d.leaves)), int32(len(d.leaves))
	d.tids = append(d.tids, ready...)
	p.tidHi, p.sleepLo = int32(len(d.tids)), int32(len(d.sl))
	if ran != nil && d.lastSched >= 0 && !ran.Global() {
		par := d.sched(&d.points[d.lastSched])
		for _, e := range d.sl[par.sleepLo:par.doneHi] {
			if d.independent(e, ran) {
				d.sl = append(d.sl, e)
			}
		}
	}
	p.sleepHi, p.doneHi = int32(len(d.sl)), int32(len(d.sl))
	p.curLo, p.curHi = int32(len(d.acc)), int32(len(d.acc))
	p.first = -1
	asleep := 0
	for i := range ready {
		if p.sleepHi > p.sleepLo && d.asleep(p, i) {
			asleep++
		} else if p.first < 0 {
			p.first = i
		}
	}
	if p.first < 0 {
		if !crash {
			d.blocked++
			d.tids, d.sl = d.tids[:p.tidLo], d.sl[:p.sleepLo]
			p.on = false
			return false
		}
		p.first = len(ready)
	}
	d.slept += asleep
	if crash && len(ready)-asleep <= 1 && !d.evaluate(p, p.first == p.nth) {
		// The crash, the only option left, reaches only boundaries other
		// prefixes own: every state of it is skipped, and so is the draw.
		d.tids, d.sl = d.tids[:p.tidLo], d.sl[:p.sleepLo]
		p.on = false
		return false
	}
	return true
}

// independent reports whether e's transition commutes with ran.
func (d *dfsChooser) independent(e sleeper, ran *machine.Footprint) bool {
	if e.global {
		return false
	}
	for _, a := range d.acc[e.lo:e.hi] {
		for _, b := range ran.Accesses() {
			if a.Conflicts(b) {
				return false
			}
		}
	}
	return true
}

// asleep reports whether option i of s runs a thread in its inherited
// sleep set.
func (d *dfsChooser) asleep(s *schedPoint, i int) bool {
	tid := d.tids[s.tidLo+int32(i)]
	for _, e := range d.sl[s.sleepLo:s.sleepHi] {
		if e.tid == tid {
			return true
		}
	}
	return false
}

// fold adds ran to s's running option's footprint, which is on top of
// acc: only non-sched points, which keep nothing, lie above s.
func (d *dfsChooser) fold(s *schedPoint, ran *machine.Footprint) {
	if s.curGlobal {
		return
	}
	if ran.Global() {
		s.curGlobal = true
		return
	}
	for _, a := range ran.Accesses() {
		if slices.Contains(d.acc[s.curLo:s.curHi], a) {
			continue
		}
		if s.curHi-s.curLo == maxCur {
			s.curGlobal = true
			return
		}
		d.acc = append(d.acc[:s.curHi], a)
		s.curHi++
	}
}

// sched returns p's part of the sleep sets, nil when it has none.
func (d *dfsChooser) sched(p *choicePoint) *schedPoint {
	if p.si == 0 {
		return nil
	}
	return &d.scheds[p.si-1]
}

// chose notes that point i's choice was made.
func (d *dfsChooser) chose(i int) {
	p := &d.points[i]
	if !d.reduce || p.tag != "sched" {
		return
	}
	s := d.sched(p)
	if s == nil {
		// A re-seated point has no sleep set, and the next one must not
		// inherit across it.
		d.lastSched, d.open, d.crashAt = -1, -1, -1
		return
	}
	d.lastSched, d.open, d.crashAt = i, -1, -1
	if p.chosen < s.nth {
		d.open = i
	} else {
		d.crashAt = i
	}
}

// cut ends an execution: a first transition still unreported was cut
// short (a violation), so its footprint is not fully known.
func (d *dfsChooser) cut() {
	if d.open >= 0 && d.open < len(d.points) {
		d.sched(&d.points[d.open]).curGlobal = true
	}
	d.open = -1
}

// placed notes where point i, just added or learned, lies among the
// "sched" points.
func (d *dfsChooser) placed(i int) {
	if !d.reduce {
		return
	}
	p := &d.points[i]
	switch {
	case p.si != 0:
		p.lastOn = int32(i)
	case i > 0:
		p.lastOn = d.points[i-1].lastOn
	default:
		p.lastOn = -1
	}
}

// trim drops from the stacks everything above the points up to i.
func (d *dfsChooser) trim(i int) {
	if !d.reduce {
		return
	}
	if i >= 0 {
		if j := d.points[i].lastOn; j >= 0 {
			si := d.points[j].si
			s := &d.scheds[si-1]
			d.scheds, d.tids, d.sl, d.acc = d.scheds[:si], d.tids[:s.tidHi], d.sl[:s.doneHi], d.acc[:s.curHi]
			d.trimLeaves(s.leafHi)
			return
		}
	}
	d.scheds, d.tids, d.sl, d.acc = d.scheds[:0], d.tids[:0], d.sl[:0], d.acc[:0]
	d.trimLeaves(0)
}

// nextOption finishes p's chosen option and returns the next one to
// explore, p.n or more when there is none: at a "sched" point the
// finished thread joins the point's done entries, and threads asleep
// there are skipped.
func (d *dfsChooser) nextOption(p *choicePoint) int {
	s := d.sched(p)
	if s == nil {
		return p.chosen + 1
	}
	if p.chosen < s.nth {
		e := sleeper{tid: d.tids[s.tidLo+int32(p.chosen)], global: s.curGlobal, lo: s.curLo, hi: s.curHi}
		d.sl = append(d.sl[:s.doneHi], e)
		s.doneHi++
		s.curLo, s.curHi, s.curGlobal = int32(len(d.acc)), int32(len(d.acc)), false
	}
	c := p.chosen + 1
	for c < s.nth && d.asleep(s, c) {
		c++
	}
	return c
}
