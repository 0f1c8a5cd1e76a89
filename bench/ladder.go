package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/gfs"
	"repro/internal/mailboat"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file is the traced half of the mail-* workloads: the per-layer
// ladder. The traced legs are op-count-bounded and (except the lock
// leg) single-client, so counts repeat exactly. For the storage ladder
// the benchmark composes the stack itself, from the public
// constructors, exactly as mailboatd composes it, with a spanFS between
// every adjacent pair of layers; the same ops then run over the same
// stack without shims (the tracing overhead), through the Adapter (the
// mailboatd rung, by difference) and — on mail-net — through the
// protocol servers with a spanStore above the Adapter.

// legSeed seeds every leg's request stream and name allocation: all
// legs of a run issue the same requests, and differ from the untraced
// run's.
func (m *mailRun) legSeed() int64 { return m.cfg.seed + 4242 }

// handStack is a storage stack composed by hand.
type handStack struct {
	sys  gfs.System // what mailboat runs on
	oses []*gfs.OS
	mb   *mailboat.Mailboat
}

func (h *handStack) close() {
	for _, o := range h.oses {
		o.CloseAll()
	}
}

// buildStack composes the workload's storage stack under dir. With
// shims, a spanFS sits on every boundary.
//
// Plain (mail-direct, mail-net):  mailboat → gfs.OS
// Vault: mailboat → Observed → Mirrored → 2 × (Checksummed → Faulty(Never) → OS)
//
// mirroring mailboatd.NewWithOptions / newMirrored line for line,
// metrics wiring included.
func (m *mailRun) buildStack(dir string, shims bool, boot gfs.T) (*handStack, error) {
	cfg := mailboat.Config{Users: m.spec.users, RandBound: 1 << 62, SyncOnDeliver: true, SyncDirs: true}
	h := &handStack{}
	shim := func(inner gfs.System, layer layerID) gfs.System {
		if !shims {
			return inner
		}
		return newSpanFS(inner, layer)
	}
	if !m.spec.vault {
		fs, err := gfs.NewOS(filepath.Join(dir, "r0"), mailboat.Dirs(cfg))
		if err != nil {
			return nil, err
		}
		h.oses = []*gfs.OS{fs}
		h.sys = shim(fs, lyOS)
	} else {
		reg := obs.NewRegistry()
		integ := gfs.NewIntegrityMetrics(reg)
		metaDirs := append([]string{gfs.MirrorMetaDir}, mailboat.Dirs(cfg)...)
		var reps [2]gfs.System
		for i := range reps {
			fs, err := gfs.NewOS(filepath.Join(dir, fmt.Sprintf("r%d", i)), metaDirs)
			if err != nil {
				h.close()
				return nil, err
			}
			h.oses = append(h.oses, fs)
			f := gfs.NewFaulty(shim(fs, lyOS), gfs.NeverPolicy{})
			c := gfs.NewChecksummed(shim(f, lyFaulty), mailboat.Dirs(cfg))
			c.Metrics = integ
			reps[i] = shim(c, lyChecksummed)
		}
		mir := gfs.NewMirrored(reps[0], reps[1], mailboat.Dirs(cfg))
		mir.Metrics = gfs.NewMirrorMetrics(reg)
		mir.Integrity = integ
		cfg.Metrics = mailboat.NewMetrics(reg)
		o := gfs.NewObserved(shim(mir, lyMirrored), gfs.NewFSMetrics(reg))
		h.sys = shim(o, lyObserved)
	}
	if s, ok := h.sys.(*spanFS); ok {
		s.wrapLocks = true
	}
	h.mb = mailboat.Recover(boot, nil, h.sys, cfg, nil)
	return h, nil
}

// legPreload fills the leg's store the way the untraced run's set-up
// does (same bodies per mailbox).
func (m *mailRun) legPreload(deliver func(user uint64, body []byte) bool) error {
	for u := uint64(0); u < m.spec.users && m.spec.preload > 0; u++ {
		rng := rand.New(rand.NewSource(m.cfg.seed*1000003 + int64(u)))
		for k := 0; k < m.spec.preload; k++ {
			if !deliver(u, m.pool.msgs[m.pool.draw(rng)]) {
				return fmt.Errorf("preloading mailbox %d failed", u)
			}
		}
	}
	return nil
}

// leg is the outcome of one traced or untraced leg.
type leg struct {
	ns   [2]int64 // total request time per class (deliver, session)
	n    [2]int64
	rec  *recorder
	reqs []reqInfo
	lad  *ladder
}

func (l *leg) meanUs(c int) float64 {
	if l.n[c] == 0 {
		return 0
	}
	return float64(l.ns[c]) / 1e3 / float64(l.n[c])
}

func (l *leg) totalNs() int64 { return l.ns[0] + l.ns[1] }

// legOps draws caller c's share of the leg's requests; every leg of a
// workload draws the same sequence.
func (m *mailRun) legOps(callers, c int) []op {
	g := newOpGen(m.spec.workload(), m.spec.mix, m.pool, m.legSeed(), c)
	ops := make([]op, m.spec.tracedOps/callers)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// verifyLeg checks the bodies a leg's session returned; outside the
// timed window.
func (m *mailRun) verifyLeg(msgs []mailboat.Message) (bytes int64) {
	for _, msg := range msgs {
		bytes += int64(len(msg.Contents))
		m.r.Attempted++
		if _, ok := m.pool.verify(msg.Contents); !ok {
			m.r.Failed++
			m.r.fail("traced leg: a picked-up message failed verification")
		}
	}
	return bytes
}

// storageLeg runs the leg's requests straight into mailboat over a
// hand-built stack, with or without shims, from `callers` goroutines.
func (m *mailRun) storageLeg(dir string, shims bool, callers int) (*leg, error) {
	boot := newBenchT(m.legSeed(), nil)
	h, err := m.buildStack(dir, shims, boot)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if err := m.legPreload(func(u uint64, body []byte) bool { return h.mb.Deliver(boot, nil, u, body) }); err != nil {
		return nil, err
	}
	l := &leg{reqs: make([]reqInfo, (m.spec.tracedOps/callers)*callers)}
	if shims {
		l.rec = newRecorder()
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		ops := m.legOps(callers, c)
		var buf *spanBuf
		if shims {
			buf = l.rec.newBuf(false)
		}
		t := newBenchT(m.legSeed()+int64(c)+1, buf)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ns, n [2]int64
			for i, o := range ops {
				req := c*len(ops) + i
				info := reqInfo{kind: o.kind}
				if buf != nil {
					buf.req = int32(req)
				}
				var picked []mailboat.Message
				t0 := time.Now()
				if o.kind == opDeliver {
					body := m.pool.msgs[o.msg]
					top := buf.enter(lyBench, callDeliver)
					j := buf.enter(lyMailboat, callDeliver)
					ok := h.mb.Deliver(t, nil, o.user, body)
					buf.exit(j, len(body))
					buf.exit(top, 0)
					info.userBytes = int64(len(body))
					if !ok {
						mu.Lock()
						m.r.Failed++
						m.r.fail("traced leg: a delivery was refused")
						mu.Unlock()
					}
				} else {
					top := buf.enter(lyBench, callSession)
					j := buf.enter(lyMailboat, callPickup)
					picked = h.mb.Pickup(t, nil, o.user)
					buf.exit(j, 0)
					if o.kind == opDrain {
						for _, msg := range picked {
							j := buf.enter(lyMailboat, callDelete)
							h.mb.Delete(t, nil, o.user, msg.ID)
							buf.exit(j, 0)
						}
					}
					j = buf.enter(lyMailboat, callUnlock)
					h.mb.Unlock(t, nil, o.user)
					buf.exit(j, 0)
					buf.exit(top, 0)
				}
				d := int64(time.Since(t0))
				if buf != nil {
					buf.req = -1
				}
				cl := classOf(o.kind)
				ns[cl] += d
				n[cl]++
				if o.kind != opDeliver {
					mu.Lock()
					info.msgs, info.userBytes = len(picked), m.verifyLeg(picked)
					mu.Unlock()
				}
				l.reqs[req] = info
			}
			mu.Lock()
			for cl := range ns {
				l.ns[cl] += ns[cl]
				l.n[cl] += n[cl]
			}
			m.r.Attempted += int64(len(ops))
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if shims {
		l.lad = l.rec.analyze(l.reqs)
	}
	return l, nil
}

// adapterLeg runs the same requests through mailboatd.Adapter, with
// Options.Tracer unset or set. With a tracer the benchmark opens the
// root span per request the way the front ends do.
func (m *mailRun) adapterLeg(dir string, tracer bool) (*leg, error) {
	root, o := m.spec.storeOptions(m.legSeed(), dir)
	if tracer {
		o.Tracer = trace.New(64, 4)
	}
	a, err := mailboatd.NewWithOptions(root, o)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	if err := m.legPreload(func(u uint64, body []byte) bool { return a.Deliver(u, body) == nil }); err != nil {
		return nil, err
	}
	l := &leg{}
	for _, o := range m.legOps(1, 0) {
		var picked []mailboat.Message
		failed := false
		t0 := time.Now()
		if o.kind == opDeliver {
			sp := a.Tracer().Start("deliver", "bench.deliver")
			failed = a.DeliverTraced(sp, o.user, m.pool.msgs[o.msg]) != nil
			sp.End()
		} else {
			sp := a.Tracer().Start("pickup", "bench.pickup")
			picked, err = a.PickupTraced(sp, o.user)
			failed = err != nil
			if o.kind == opDrain {
				for _, msg := range picked {
					failed = a.DeleteTraced(sp, o.user, msg.ID) != nil || failed
				}
			}
			a.Unlock(o.user)
			sp.End()
		}
		cl := classOf(o.kind)
		l.ns[cl] += int64(time.Since(t0))
		l.n[cl]++
		m.r.Attempted++
		if failed {
			m.r.Failed++
			m.r.fail("adapter leg: a request was refused")
		}
		m.verifyLeg(picked)
	}
	return l, nil
}

// protocolLeg runs the requests through smtp.Server / pop3.Server over
// loopback from one client. With shims a spanStore records the
// Adapter's share on the servers' goroutines and the client's top span
// is the protocol layer's own span.
func (m *mailRun) protocolLeg(dir string, shims bool) (*leg, *netFront, error) {
	root, o := m.spec.storeOptions(m.legSeed(), dir)
	a, err := mailboatd.NewWithOptions(root, o)
	if err != nil {
		return nil, nil, err
	}
	defer a.Close()
	l := &leg{reqs: make([]reqInfo, m.spec.tracedOps)}
	var store mailStore = a
	var cbuf *spanBuf
	if shims {
		l.rec = newRecorder()
		cbuf = l.rec.newBuf(false)
		store = &spanStore{inner: a, buf: l.rec.newBuf(true)}
	}
	front, err := startFront(store, m.spec.users, m.pool)
	if err != nil {
		return nil, nil, err
	}
	defer front.stop()
	c, err := front.newClient()
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	// The connect banner is set-up, not a delivery's round trip.
	front.smtpWire.trips.Store(0)
	front.smtpWire.bytes.Store(0)
	for i, o := range m.legOps(1, 0) {
		info := reqInfo{kind: o.kind}
		if shims {
			l.rec.curReq.Store(int32(i))
			cbuf.req = int32(i)
		}
		t0 := time.Now()
		var s session
		if o.kind == opDeliver {
			top := cbuf.enter(lySMTP, callDeliver)
			s = doOp(c, o)
			cbuf.exit(top, 0)
			info.userBytes = int64(len(m.pool.msgs[o.msg]))
		} else {
			top := cbuf.enter(lyPOP3, callSession)
			s = doOp(c, o)
			cbuf.exit(top, 0)
		}
		cl := classOf(o.kind)
		l.ns[cl] += int64(time.Since(t0))
		l.n[cl]++
		if shims {
			l.rec.curReq.Store(-1)
			cbuf.req = -1
		}
		m.r.Attempted++
		if s.err != nil {
			m.r.Failed++
			m.r.fail("protocol leg: %v", s.err)
		}
		if o.kind != opDeliver {
			info.msgs, info.userBytes = len(s.msgs), m.verifyLeg(s.msgs)
		}
		l.reqs[i] = info
	}
	if shims {
		l.lad = l.rec.analyze(l.reqs)
	}
	return l, front, nil
}

// tracedLegs runs the workload's ladder and fills the per-layer
// metrics.
func (m *mailRun) tracedLegs(base string) {
	r := m.r
	n := 0
	fresh := func() string {
		n++
		return filepath.Join(base, fmt.Sprintf("leg%d", n))
	}
	// Each leg gets a fresh directory, removed once the leg is done, so
	// tmpfs holds one leg's store at a time.
	run := func(what string, f func(dir string) (*leg, error)) *leg {
		dir := fresh()
		defer os.RemoveAll(dir)
		l, err := f(dir)
		if err != nil {
			r.fail("traced %s leg: %v", what, err)
			return nil
		}
		return l
	}
	// A discarded leg first: whichever leg runs first in a process pays
	// for growing the heap and warming tmpfs, and the ratios below
	// compare legs.
	run("warm-up", func(d string) (*leg, error) { return m.storageLeg(d, false, 1) })
	plain := run("untraced storage", func(d string) (*leg, error) { return m.storageLeg(d, false, 1) })
	traced := run("traced storage", func(d string) (*leg, error) { return m.storageLeg(d, true, 1) })
	adapter := run("adapter", func(d string) (*leg, error) { return m.adapterLeg(d, false) })
	contended := run("contended storage", func(d string) (l *leg, err error) {
		withProcs(m.cfg.z.parallel, func() { l, err = m.storageLeg(d, true, m.cfg.z.parallel) })
		return l, err
	})
	if plain == nil || traced == nil || adapter == nil || contended == nil {
		return
	}
	tracePath := filepath.Join(m.cfg.out, "trace-"+m.spec.name+".jsonl")
	if err := os.MkdirAll(m.cfg.out, 0o755); err != nil {
		r.fail("trace output: %v", err)
		return
	}
	if err := traced.rec.writeJSONL(tracePath, "storage", false); err != nil {
		r.fail("%v", err)
	}
	if err := contended.rec.writeJSONL(tracePath, "contended", true); err != nil {
		r.fail("%v", err)
	}

	lad := traced.lad
	m.storageMetrics(lad, m.topFS())
	lockNs := contended.lad.selfNs[0][lyLockWait] + contended.lad.selfNs[1][lyLockWait]
	r.layer("mailboat.lock_wait_us_per_op", float64(lockNs)/1e3/float64(max(contended.lad.reqs[0]+contended.lad.reqs[1], 1)),
		contended.lad.reqs[0]+contended.lad.reqs[1])
	r.layer("mailboatd.self_us_per_deliver", adapter.meanUs(0)-plain.meanUs(0), adapter.n[0])
	r.layer("mailboatd.self_us_per_pickup", adapter.meanUs(1)-plain.meanUs(1), adapter.n[1])

	overhead := float64(traced.totalNs()) / float64(max(plain.totalNs(), 1))
	unattributed := lad.unattributed()
	uncontained := lad.uncontained + contended.lad.uncontained
	ladders := lad.table(m.spec.name + " storage")

	if m.spec.name == wlMailDirect {
		// The observability price tag: the same requests with the
		// Adapter's tracer on.
		if tl := run("adapter+tracer", func(d string) (*leg, error) { return m.adapterLeg(d, true) }); tl != nil {
			r.layer("trace.overhead_ratio_deliver", tl.meanUs(0)/adapter.meanUs(0), tl.n[0])
			r.layer("trace.overhead_ratio_pickup", tl.meanUs(1)/adapter.meanUs(1), tl.n[1])
		}
	}
	if m.spec.net {
		var front *netFront
		bare := run("untraced protocol", func(d string) (*leg, error) {
			l, _, err := m.protocolLeg(d, false)
			return l, err
		})
		proto := run("traced protocol", func(d string) (*leg, error) {
			l, f, err := m.protocolLeg(d, true)
			front = f
			return l, err
		})
		if bare == nil || proto == nil {
			return
		}
		if err := proto.rec.writeJSONL(tracePath, "protocol", true); err != nil {
			r.fail("%v", err)
		}
		pl := proto.lad
		r.layer("smtp.self_us_per_deliver", pl.selfUsPer(0, lySMTP), pl.reqs[0])
		r.layer("smtp.round_trips_per_deliver", ratio(front.smtpWire.trips.Load(), pl.reqs[0]), pl.reqs[0])
		r.layer("smtp.wire_bytes_per_user_byte", ratio(front.smtpWire.bytes.Load(), pl.bytesDelivered), pl.reqs[0])
		r.layer("pop3.self_us_per_session", pl.selfUsPer(1, lyPOP3), pl.reqs[1])
		r.layer("pop3.round_trips_per_session", ratio(front.popWire.trips.Load(), pl.reqs[1]), pl.reqs[1])
		r.layer("pop3.wire_bytes_per_user_byte", ratio(front.popWire.bytes.Load(), pl.bytesPicked), pl.reqs[1])
		// On mail-net the ladder's validity is the protocol leg's: it
		// is the leg whose top span is the end-to-end request.
		overhead = float64(proto.totalNs()) / float64(max(bare.totalNs(), 1))
		unattributed = max(unattributed, pl.unattributed())
		uncontained += pl.uncontained
		ladders += pl.table(m.spec.name + " protocol")
	}
	r.layer("bench.shim_overhead_ratio", overhead, traced.n[0]+traced.n[1])
	r.layer("bench.unattributed_ratio", unattributed, traced.n[0]+traced.n[1])
	r.Detail = append(r.Detail, "trace written to "+tracePath)
	r.Detail = append(r.Detail, ladders)

	// Attribution check: the parts must sum to the whole.
	if uncontained > 0 {
		r.fail("attribution: %d child spans are not contained in their parent", uncontained)
	}
	if unattributed > 0.10 {
		m.invalid("attribution: %.1f%% of request time belongs to no layer (limit 10%%)", 100*unattributed)
	}
	if overhead > 1.25 {
		r.detail("WARNING: shim overhead ratio %.3f exceeds 1.25; the ladder's absolute times are inflated", overhead)
	}
}

// topFS is the layer directly under mailboat in the workload's stack.
func (m *mailRun) topFS() layerID {
	if m.spec.vault {
		return lyObserved
	}
	return lyOS
}

// storageMetrics fills the mailboat.* and gfs.* blocks from the traced
// storage leg.
func (m *mailRun) storageMetrics(l *ladder, top layerID) {
	r := m.r
	delivers, sessions := l.reqs[0], l.reqs[1]
	sumCalls := func(a [numCalls]int64) (n int64) {
		for _, c := range a {
			n += c
		}
		return n
	}
	r.layer("mailboat.self_us_per_deliver", l.selfUsPer(0, lyMailboat), delivers)
	r.layer("mailboat.self_us_per_pickup", l.selfUsPer(1, lyMailboat), sessions)
	if n := l.callCount[lyMailboat][callDelete]; n > 0 {
		r.layer("mailboat.self_us_per_delete", float64(l.callSelfNs[lyMailboat][callDelete])/1e3/float64(n), n)
	}
	r.layer("mailboat.fs_calls_per_deliver", ratio(sumCalls(l.deliverCalls[top]), delivers), delivers)
	r.layer("mailboat.fs_calls_per_pickup_msg", ratio(sumCalls(l.pickupCalls[top]), l.msgsPicked), l.msgsPicked)
	r.layer("mailboat.creates_per_deliver", ratio(l.deliverCalls[top][callCreate], delivers), delivers)
	r.layer("mailboat.readats_per_kib", float64(l.pickupCalls[top][callReadAt])/(float64(max(l.bytesPicked, 1))/1024), l.bytesPicked)

	for _, mw := range []struct {
		ly   layerID
		name string
	}{{lyObserved, "gfs.observed"}, {lyFaulty, "gfs.faulty"}, {lyChecksummed, "gfs.checksummed"}, {lyMirrored, "gfs.mirrored"}, {lyOS, "gfs.os"}} {
		if !l.present[mw.ly] {
			continue
		}
		r.layer(mw.name+".self_us_per_deliver", l.selfUsPer(0, mw.ly), delivers)
		r.layer(mw.name+".self_us_per_pickup", l.selfUsPer(1, mw.ly), sessions)
		in := sumCalls(l.callCount[mw.ly])
		switch mw.ly {
		case lyChecksummed:
			r.layer(mw.name+".calls_out_per_call_in", ratio(l.outCalls[mw.ly], in), in)
			r.layer(mw.name+".bytes_out_per_byte_in", ratio(l.outBytes[mw.ly][callAppend], l.inBytes[mw.ly][callAppend]), l.inBytes[mw.ly][callAppend])
			r.layer(mw.name+".bytes_read_per_byte_returned", ratio(l.outBytes[mw.ly][callReadAt], l.inBytes[mw.ly][callReadAt]), l.inBytes[mw.ly][callReadAt])
		case lyMirrored:
			r.layer(mw.name+".calls_out_per_call_in", ratio(l.outCalls[mw.ly], in), in)
			r.layer(mw.name+".bytes_out_per_byte_in", ratio(l.outBytes[mw.ly][callAppend], l.inBytes[mw.ly][callAppend]), l.inBytes[mw.ly][callAppend])
		}
	}
	calls := map[string]callID{"create": callCreate, "append": callAppend, "sync": callSync, "syncdir": callSyncDir,
		"link": callLink, "delete": callFSDelete, "open": callOpen, "readat": callReadAt, "list": callList}
	for _, name := range gfsCalls {
		c := calls[name]
		if n := l.callCount[lyOS][c]; n > 0 {
			r.layer("gfs.os.us_per_call."+name, float64(l.callNs[lyOS][c])/1e3/float64(n), n)
		}
	}
	r.layer("gfs.os.syncs_per_deliver", ratio(l.deliverCalls[lyOS][callSync], delivers), delivers)
	r.layer("gfs.os.syncdirs_per_deliver", ratio(l.deliverCalls[lyOS][callSyncDir], delivers), delivers)
	r.layer("gfs.os.bytes_written_per_user_byte", ratio(l.inBytes[lyOS][callAppend], l.bytesDelivered), l.bytesDelivered)
}
