package explore

import (
	"slices"

	"repro/internal/machine"
)

// Source sets and wakeup trees (DESIGN.md "Source sets and wakeup
// trees"): optimal dynamic partial-order reduction over the footprints
// the machine reports at each "sched" draw. A transition is a thread's
// step plus the Go code it runs up to its next draw; two transitions are
// independent when no access of one conflicts with an access of the
// other (machine.Access.Conflicts). A fresh draw runs one thread, the
// first its wakeup tree names, else its first awake one; every other
// thread option it explores, race analysis (wakeup.go) added to its
// tree, because an execution ran a transition that conflicts with the
// one the draw chose and comes after it through no third. The crash
// option is explored at every draw.
//
// Sleep sets work beside the trees: once an option's subtree is
// finished, its thread sleeps in the subtrees of the options explored
// after it, for as long as the transitions run there are independent
// of its own. A sleeping thread is never a fresh draw's first option,
// and race analysis adds no wakeup sequence that a sleeping thread
// already covers. An option is skipped, never removed, so every choice
// index keeps its meaning. When every option of a fresh draw sleeps and
// none crashes, the execution stops there, unchecked
// (Stats.SleepBlocked): only after another answer of a data choice
// inside a wakeup sequence (wakeup.go).
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

// schedPoint is a "sched" point's part of the reduction, and of dedup,
// kept beside the choice points.
type schedPoint struct {
	// on marks sleepSets.pend as prepared for Choose.
	on bool
	// first is the option a fresh point takes: the thread its wakeup
	// tree names first, else its first awake thread, else the crash
	// option.
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
	// wut is the wakeup tree's branches still to explore here, in order;
	// era is the first event of the point's era.
	wut []*wnode
	era int32
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
	// new in this execution. pend is the fresh point Sched prepared for
	// Choose.
	lastSched, open int
	frontier        int
	pend            schedPoint

	slept, blocked int
}

// Sched implements machine.Reducer.
func (d *dfsChooser) Sched(ran *machine.Transition, ready []machine.TID, crash bool) bool {
	if ran == nil {
		d.lastSched, d.open = -1, -1
		d.startEra()
	} else {
		d.record(ran)
		if d.open >= 0 {
			// A transition is the same every time its choices are
			// replayed, so only a new one can add to the footprint.
			if d.pos > d.frontier {
				d.fold(d.sched(&d.points[d.open]), &ran.Footprint)
			}
			d.open = -1
		}
	}
	if len(ready) == 0 {
		d.endEra(crash && d.nev > d.keep)
		return true
	}
	if d.pos < len(d.points) {
		if s := d.sched(&d.points[d.pos]); s != nil && s.due {
			s.due = false
			if d.points[d.pos].chosen < s.nth {
				d.evaluate(s, false)
			} else if !d.evaluate(s, true) {
				d.endEra(true) // as at a fresh draw whose crash is all that is left
				return false
			} else {
				d.pushAnswers(d.leaves[s.cur], 0)
			}
		}
		return true
	}
	p := &d.pend
	*p = schedPoint{on: true, nth: len(ready), tidLo: int32(len(d.tids)), cur: -1, era: int32(d.eraLo)}
	p.leafLo, p.leafHi = int32(len(d.leaves)), int32(len(d.leaves))
	d.tids = append(d.tids, ready...)
	p.tidHi, p.sleepLo = int32(len(d.tids)), int32(len(d.sl))
	if ran != nil && d.lastSched >= 0 && !ran.Global() {
		par := d.sched(&d.points[d.lastSched])
		for _, e := range d.sl[par.sleepLo:par.doneHi] {
			if e.tid != ran.Thread() && d.independent(e, &ran.Footprint) {
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
	d.slept += asleep
	d.follow(p, ready)
	if p.first < 0 {
		if !crash {
			d.blocked++
			d.endEra(false)
			d.tids, d.sl = d.tids[:p.tidLo], d.sl[:p.sleepLo]
			p.on = false
			return false
		}
		p.first = len(ready)
	}
	if crash && len(p.wut) == 0 && len(ready)-asleep <= 1 && !d.evaluate(p, p.first == p.nth) {
		// The crash, the only option left, reaches only boundaries other
		// prefixes own: every state of it is skipped, and so is the draw.
		d.endEra(true)
		d.tids, d.sl = d.tids[:p.tidLo], d.sl[:p.sleepLo]
		p.on = false
		return false
	}
	return true
}

// independent reports whether e's transition commutes with ran.
func (d *dfsChooser) independent(e sleeper, ran *machine.Footprint) bool {
	return !e.global && !machine.Conflict(d.acc[e.lo:e.hi], ran.Accesses())
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

// sched returns p's part of the reduction, nil when it has none.
func (d *dfsChooser) sched(p *choicePoint) *schedPoint {
	if p.si == 0 {
		return nil
	}
	return &d.scheds[p.si-1]
}

// chose notes that point i's choice was made.
func (d *dfsChooser) chose(i int) {
	p := &d.points[i]
	if d.dd == nil || p.tag != "sched" {
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
		d.endEra(i >= d.frontier)
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
	if d.dd == nil {
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
	if d.dd == nil {
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
// explore, p.n or more when there is none. A data choice goes round
// from the option it started at. At a "sched" point the finished thread
// joins the point's done entries, and the next option is the wakeup
// tree's next branch, whose transitions the next execution follows;
// after the last, the crash.
func (d *dfsChooser) nextOption(p *choicePoint) int {
	s := d.sched(p)
	if s == nil {
		c := p.chosen + 1
		if c == p.n {
			c = 0
		}
		if c == int(p.start) {
			return p.n
		}
		return c
	}
	if p.chosen >= s.nth {
		return p.n
	}
	e := sleeper{tid: d.tids[s.tidLo+int32(p.chosen)], global: s.curGlobal, lo: s.curLo, hi: s.curHi}
	d.sl = append(d.sl[:s.doneHi], e)
	s.doneHi++
	s.curLo, s.curHi, s.curGlobal = int32(len(d.acc)), int32(len(d.acc)), false
	for len(s.wut) > 0 {
		w := s.wut[0]
		s.wut = s.wut[1:]
		if i := slices.Index(d.tids[s.tidLo:s.tidHi], w.tid); i >= 0 {
			d.gnode, d.gans = w, 0
			return i
		}
	}
	return s.nth
}
