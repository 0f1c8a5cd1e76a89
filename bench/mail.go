package main

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/mailboat"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/postal"
)

// This file runs the three mail-* workloads with tracing off: set-up
// (timed, repeated), the measured closed loop in segments, then close →
// reopen (boot recovery, timed) → full-scan audit against the ledger →
// storage accounting → the checker canary. Every timing is taken
// between two yardstick samples and stated at the reference host speed
// (yardstick.go).

// runCfg is one invocation's settings.
type runCfg struct {
	z       sizes
	seed    int64
	seconds int
	// exe, when non-empty, is this binary: check-suite then runs each
	// pass in a child process (see runPass). Tests leave it empty.
	exe    string
	dir    string // store base directory; "" = tmpfs if there is one
	out    string // where trace files go
	traced bool
	smoke  bool
	log    io.Writer // progress lines, not results
}

// withProcs runs f at GOMAXPROCS n: the benchmark process runs on one
// P, and only the legs that are about parallelism raise it.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func (c *runCfg) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "bench: "+format+"\n", args...)
}

// mailSpec is the shape of one mail-* workload.
type mailSpec struct {
	name        string
	measure     time.Duration // the closed loop's measured length
	yard        yardBlend
	users       uint64
	skew        string
	zipfS       float64
	mix         opMix
	vault       bool   // Checksum + MirrorRoot + Metrics: the full gfs stack
	net         bool   // through smtp.Server / pop3.Server over loopback
	preload     int    // messages per mailbox before the run
	gatedPickup opKind // the session kind pickup_* reports
	tracedOps   int

	// Per burst (see mailRun.burst): discarded set-ups and close →
	// reopen cycles of the live store.
	setupsPerBurst int
	setupBursts    []int // when non-nil, only these bursts repeat the set-up
	burstReopens   int
}

// burstSetups is how many discarded set-ups burst i performs.
func (s mailSpec) burstSetups(i int) int {
	if s.setupBursts == nil {
		return s.setupsPerBurst
	}
	for _, b := range s.setupBursts {
		if b == i {
			return s.setupsPerBurst
		}
	}
	return 0
}

func mailSpecOf(name string, z sizes) mailSpec {
	switch name {
	case wlMailDirect:
		return mailSpec{name: name, measure: z.measure, yard: z.yardStore, users: z.directUsers, skew: postal.SkewUniform,
			mix: opMix{deliver: 0.5}, gatedPickup: opDrain, tracedOps: z.tracedOps,
			setupsPerBurst: z.setupsPerBurst, burstReopens: z.reopensPerBurst}
	case wlMailNet:
		return mailSpec{name: name, measure: z.measure, yard: z.yardNet, users: z.directUsers, skew: postal.SkewUniform,
			mix: opMix{deliver: 0.5}, net: true, gatedPickup: opDrain, tracedOps: z.tracedOps,
			setupsPerBurst: z.setupsPerBurst, burstReopens: z.reopensPerBurst}
	case wlMailVault:
		// A vault set-up is seconds and a vault reopen more: one extra
		// set-up, in the middle of the run, and only the final reopen.
		return mailSpec{name: name, measure: z.vaultMeasure, yard: z.yardVault, users: z.vaultUsers, skew: postal.SkewZipf, zipfS: z.vaultZipfS,
			mix: opMix{deliver: 0.2, read: 0.7}, vault: true, preload: z.vaultPreload, gatedPickup: opRead,
			tracedOps: z.tracedVaultOps, setupsPerBurst: z.vaultSetupsPerBurst, setupBursts: z.vaultSetupBursts}
	}
	panic("bench: not a mail workload: " + name)
}

func (s mailSpec) workload() postal.Workload {
	return postal.Workload{Users: s.users, Skew: s.skew, ZipfS: s.zipfS}
}

// storeOptions is the deployment each workload measures.
func (s mailSpec) storeOptions(seed int64, base string) (root string, o mailboatd.Options) {
	o = mailboatd.Options{Users: s.users, Seed: seed, SyncOnDeliver: true, SyncDirs: true}
	if s.vault {
		o.Checksum = true
		o.MirrorRoot = filepath.Join(base, "r1")
		o.Metrics = obs.NewRegistry()
	}
	return filepath.Join(base, "r0"), o
}

// storeBase picks the directory stores live under. The default is
// postal.RAMDir() — tmpfs, as in the paper's §9.3 — because a run on
// this sandbox's virtio disk would measure 0.5 ms fsyncs and little
// else; --dir names the real-disk rung. If tmpfs is not writable the
// benchmark falls back to its own output directory.
func storeBase(cfg *runCfg) (string, error) {
	candidates := []string{cfg.dir}
	if cfg.dir == "" {
		candidates = []string{postal.RAMDir(), os.TempDir(), cfg.out}
	}
	var last error
	for _, d := range candidates {
		if err := os.MkdirAll(d, 0o755); err != nil {
			last = err
			continue
		}
		base, err := os.MkdirTemp(d, "perennial-bench-")
		if err == nil {
			return base, nil
		}
		last = err
	}
	return "", fmt.Errorf("no usable store directory: %w", last)
}

// storeRef is the live store behind the clients and the protocol
// servers. The indirection lets the run close and reopen the store
// between measured segments (recover_s is sampled all along the run,
// not once at its end) without rebuilding clients or servers; it is
// swapped only while no request is in flight.
type storeRef struct{ a *mailboatd.Adapter }

func (s *storeRef) Deliver(user uint64, msg []byte) error { return s.a.Deliver(user, msg) }
func (s *storeRef) Pickup(user uint64) ([]mailboat.Message, error) {
	return s.a.Pickup(user)
}
func (s *storeRef) Delete(user uint64, id string) error { return s.a.Delete(user, id) }
func (s *storeRef) Unlock(user uint64)                  { s.a.Unlock(user) }

// stand is one set-up's product: the system under test, ready for
// traffic.
type stand struct {
	ref    *storeRef
	front  *netFront
	client mailClient // the closed loop's one client
	boot   time.Duration
}

func closeClients(cs []mailClient) {
	for _, c := range cs {
		if nc, ok := c.(*netClient); ok {
			nc.close()
		}
	}
}

func (st *stand) teardown() {
	closeClients([]mailClient{st.client})
	if st.front != nil {
		st.front.stop()
	}
	if st.ref != nil {
		st.ref.a.Close()
	}
}

// mailRun is one mail-* workload in flight.
type mailRun struct {
	cfg  *runCfg
	spec mailSpec
	r    *result
	pool *msgPool
	led  *ledger
	root string // everything the run writes lives under here
	base string // the live store's directory

	*stand
	y   *yard // the workload's yardstick
	gen *opGen

	// Sampled in bursts between the measured segments, so that the
	// repetitions are spread over the whole run: this box has
	// episodes, seconds long, in which syscalls cost up to twice as
	// much, and a metric measured in one go reports the episode. Seconds,
	// at the reference host speed and raw.
	bursts              int
	setups, rawSetups   []float64
	reopens, rawReopens []float64
}

// setUp builds the system under test in dir: boot the store (which
// creates the mailbox tree), preload, start the protocol servers and
// connect the client. It is what setup_s times.
func (m *mailRun) setUp(dir string, led *ledger) (*stand, error) {
	st := &stand{}
	t0 := time.Now()
	root, o := m.spec.storeOptions(m.cfg.seed, dir)
	store, err := mailboatd.NewWithOptions(root, o)
	if err != nil {
		return nil, fmt.Errorf("booting store: %w", err)
	}
	st.ref, st.boot = &storeRef{a: store}, time.Since(t0)
	if err := m.preload(store, led); err != nil {
		st.teardown()
		return nil, err
	}
	if !m.spec.net {
		st.client = directClient{s: st.ref, pool: m.pool}
		return st, nil
	}
	if st.front, err = startFront(st.ref, m.spec.users, m.pool); err != nil {
		st.teardown()
		return nil, err
	}
	c, err := st.front.newClient()
	if err != nil {
		st.teardown()
		return nil, err
	}
	st.client = c
	return st, nil
}

// timedSetUp is one set-up between two yardstick samples.
func (m *mailRun) timedSetUp(dir string, led *ledger) (st *stand, err error) {
	timed := m.y.timed
	if m.spec.vault {
		// A vault set-up is seconds long and there are two in a run.
		timed = func(f func()) (float64, float64) { return m.y.timedOnce(m.cfg.z.yardOnce, f) }
	}
	raw, norm := timed(func() { st, err = m.setUp(dir, led) })
	if err == nil {
		m.setups, m.rawSetups = append(m.setups, norm), append(m.rawSetups, raw)
	}
	return st, err
}

// preload delivers spec.preload messages to every mailbox; which bodies
// a mailbox gets depends only on the seed and the mailbox.
func (m *mailRun) preload(store *mailboatd.Adapter, led *ledger) error {
	for u := uint64(0); u < m.spec.users && m.spec.preload > 0; u++ {
		rng := rand.New(rand.NewSource(m.cfg.seed*1000003 + int64(u)))
		for k := 0; k < m.spec.preload; k++ {
			idx := m.pool.draw(rng)
			if err := store.Deliver(u, m.pool.msgs[idx]); err != nil {
				return fmt.Errorf("preloading mailbox %d: %w", u, err)
			}
			led.add(u, idx, 1)
		}
	}
	return nil
}

// runMail runs one mail-* workload end to end.
func runMail(cfg *runCfg, name string) *result {
	m := &mailRun{cfg: cfg, spec: mailSpecOf(name, cfg.z), r: newResult(name)}
	m.pool = newMsgPool(cfg.seed, cfg.z.poolPerClass)
	root, err := storeBase(cfg)
	if err != nil {
		m.r.fail("%v", err)
		return m.r
	}
	m.root = root
	defer os.RemoveAll(root)
	cfg.logf("%s: stores under %s (%s), one client on one P", name, root, fsTypeOf(root))
	if m.y, err = newYard(m.spec.yard, root); err != nil {
		m.r.fail("yardstick: %v", err)
		return m.r
	}
	defer m.y.close()

	// The live store: the first, kept, set-up.
	m.base, m.led = filepath.Join(root, "live"), newLedger(m.pool, m.spec.users)
	st, err := m.timedSetUp(m.base, m.led)
	if err != nil {
		m.r.fail("set-up: %v", err)
		return m.r
	}
	m.stand = st
	m.r.layer("mailboatd.boot_s", st.boot.Seconds(), 1)
	m.gen = newOpGen(m.spec.workload(), m.spec.mix, m.pool, m.cfg.seed, 0)

	m.measure()
	if cfg.traced && m.spec.net {
		withProcs(cfg.z.parallel, m.openLoopPhase)
	}
	m.closeAndAudit()
	m.r.e2e("setup_s", medianFloat(m.setups), int64(len(m.setups)))
	m.r.e2e("recover_s", medianFloat(m.reopens), int64(len(m.reopens)))
	m.r.layer("bench.host_speed", m.y.hostSpeed(), int64(len(m.y.samples)))
	m.r.detail("yardstick: %d samples, host speed %.3f of the reference; raw (not normalised) medians: setup_s %.6g, recover_s %.6g",
		len(m.y.samples), m.y.hostSpeed(), medianFloat(m.rawSetups), medianFloat(m.rawReopens))
	if cfg.traced {
		m.tracedLegs(root)
	}
	// The checker canary runs last (and, outside the tests, in a child
	// process): explore leaves some hundred parked goroutines behind per
	// sample (machine threads that a crash killed mid-step), which would
	// tax every garbage collection of a mail phase measured after it.
	runCanary(cfg, m.r)
	return m.r
}

// burst is what runs between two measured segments: the workload's
// share of discarded set-ups (each in a fresh directory) and of close →
// reopen cycles of the live store.
func (m *mailRun) burst() {
	for i := 0; i < m.spec.burstSetups(m.bursts); i++ {
		dir := filepath.Join(m.root, fmt.Sprintf("setup%d-%d", m.bursts, i))
		st, err := m.timedSetUp(dir, newLedger(m.pool, m.spec.users))
		if err != nil {
			m.r.fail("repeated set-up: %v", err)
			break
		}
		st.teardown()
		os.RemoveAll(dir)
	}
	m.reopenTimes(m.spec.burstReopens)
	m.bursts++
}

// reopenTimes reopens the live store n times between two yardstick
// samples (the vault's one reopen, seconds long, between two sets of
// them).
func (m *mailRun) reopenTimes(n int) bool {
	var raw []float64
	ok := true
	reopens := func() {
		for i := 0; i < n && ok; i++ {
			var d time.Duration
			if d, ok = m.reopen(); ok {
				raw = append(raw, d.Seconds())
			}
		}
	}
	var scale float64
	if m.spec.vault {
		wall, norm := m.y.timedOnce(m.cfg.z.yardOnce, reopens)
		scale = norm / wall
	} else {
		scale = m.y.bracket(reopens)
	}
	for _, d := range raw {
		m.reopens, m.rawReopens = append(m.reopens, d*scale), append(m.rawReopens, d)
	}
	return ok
}

// reopen closes the live store and opens it again with the same
// options — boot recovery: resilver check, scrub, spool sweep — timing
// Close → NewWithOptions returns. Killing the process would leave the
// OS cache intact, so this exercises the recovery path, not power loss;
// acked ⇒ durable ordering is the checker's job (mb/writeback+*).
func (m *mailRun) reopen() (time.Duration, bool) {
	m.ref.a.Close()
	t0 := time.Now()
	root, o := m.spec.storeOptions(m.cfg.seed, m.base)
	store, err := mailboatd.NewWithOptions(root, o)
	if err != nil {
		m.r.fail("reopening the store: %v", err)
		return 0, false
	}
	d := time.Since(t0)
	m.ref.a = store
	return d, true
}

// latencyMetrics reports a phase's deliver and pickup quantiles: exact
// order statistics of raw samples per slice at the reference host
// speed, median over the slices (phase.sliceQuantile), with the raw
// whole-phase quantiles and the highest supported percentile as detail.
func (m *mailRun) latencyMetrics(p *phase, label string) {
	d, k := p.lat[opDeliver], p.lat[m.spec.gatedPickup]
	p.gatedLatencies(m.r, m.spec.gatedPickup)
	m.r.detail("%s, whole phase, raw: deliver p50/p99 %.1f/%.1f us, pickup p50/p99 %.1f/%.1f us", label,
		usOf(quantile(d, .5)), usOf(quantile(d, .99)), usOf(quantile(k, .5)), usOf(quantile(k, .99)))
	for _, s := range []struct {
		what string
		lat  []int64
	}{{"deliver", d}, {"pickup", k}} {
		if q, v, beyond, ok := topPercentile(s.lat); ok {
			m.r.detail("%s %s: n=%d, highest supported percentile p%g = %.1f us (%d samples beyond)",
				label, s.what, len(s.lat), 100*q, usOf(v), beyond)
		} else {
			m.r.fail("%s %s: only %d samples, no percentile is supported", label, s.what, len(s.lat))
		}
	}
}

// measure runs the closed loop in segments, a burst before each and
// one after the last.
func (m *mailRun) measure() {
	z := m.cfg.z
	env := &mailEnv{pool: m.pool, ledger: m.led}
	do := func(o op) session { return doOp(m.client, o) }
	perSeg := max(int(m.spec.measure/time.Duration(z.segments)/z.slice), 1)
	closed := &phase{}
	var delta procDelta
	warm := z.warm
	for i := 0; i < z.segments; i++ {
		m.burst()
		before, own := snapProc(), m.y.own
		closed.append(mergeStats([]*clientStats{closedLoop(do, m.gen, env, m.y, warm, perSeg, z.slice, 0)}))
		delta.add(snapProc().since(before).minus(m.y.own.minus(own)))
		warm = z.segWarm
	}
	m.burst()
	m.r.e2e("throughput_rps", closed.throughput(), int64(len(closed.slices)))
	m.latencyMetrics(closed, "closed loop")

	m.r.Attempted += closed.attempted
	m.r.Failed += closed.failed
	if closed.errs+closed.transient+closed.shed+closed.badHashes > 0 {
		m.r.fail("%d errors, %d transient refusals, %d shed, %d bad hashes in the measured phase",
			closed.errs, closed.transient, closed.shed, closed.badHashes)
	}
	m.r.layer("mailboatd.shed_ratio", ratio(closed.shed, closed.attempted), closed.attempted)
	m.r.layer("mailboatd.transient_ratio", ratio(closed.transient, closed.attempted), closed.attempted)
	delta.report(m.r, closed.attempted)
	m.r.detail("closed loop: %d requests verified in %d slices (%d delivers, %d sessions, %d messages picked up); raw throughput %.0f req/s",
		closed.requests(), len(closed.slices), closed.delivers, closed.sessions, closed.msgs, closed.rawThroughput())
}

// openLoopPhase is mail-net's open loop, part of the traced run: the
// generator is calibrated against a no-op backend, then the live
// servers are driven at each fixed rate over z.openConns connections of
// their own, at GOMAXPROCS z.parallel. What it finds is reported per
// layer (loadgen.*), raw: on this sandbox an open loop at a fraction of
// capacity mostly measures how long a halted vCPU takes to wake, which
// varies 2x from one quarter of an hour to the next, so the GATED
// latencies of mail-net are the closed loop's (README, "The open loop").
func (m *mailRun) openLoopPhase() {
	z := m.cfg.z
	env := &mailEnv{pool: m.pool, ledger: m.led}
	n := z.openConns
	top := z.netRates[len(z.netRates)-1]
	// One request stream per connection, numbered after the closed
	// loop's.
	clients, gens := make([]mailClient, n), make([]*opGen, n)
	defer func() { closeClients(clients) }()
	for i := range clients {
		c, err := m.front.newClient()
		if err != nil {
			m.r.fail("open loop: %v", err)
			return
		}
		clients[i], gens[i] = c, newOpGen(m.spec.workload(), m.spec.mix, m.pool, m.cfg.seed, 1+i)
	}

	// Calibration: the identical schedule, at the top rate, into a
	// backend that returns at once.
	noops := make([]mailClient, n)
	calGens := make([]*opGen, n)
	for i := range noops {
		noops[i] = noopClient{}
		calGens[i] = newOpGen(m.spec.workload(), m.spec.mix, m.pool, m.cfg.seed+7777, i)
	}
	cal := mergeStats(openLoop(noops, calGens, &mailEnv{pool: m.pool},
		openStep{rate: top, warm: z.netStepWarm, measure: z.netCalib}))
	var noop []int64
	for k := range cal.lat {
		noop = append(noop, cal.lat[k]...)
	}
	noop = sortedCopy(noop)
	m.r.layer("loadgen.noop_p50_us", usOf(quantile(noop, 0.50)), int64(len(noop)))
	m.r.layer("loadgen.noop_p99_us", usOf(quantile(noop, 0.99)), int64(len(noop)))
	m.r.detail("generator floor at %d req/s into a no-op backend: p50 %.2f us, p99 %.2f us, timer lateness p99 %.1f us",
		top, usOf(quantile(noop, 0.50)), usOf(quantile(noop, 0.99)), usOf(quantile(cal.late, 0.99)))

	maxOK := 0
	for i, rate := range z.netRates {
		step := openStep{rate: rate, warm: z.netStepWarm, measure: z.netStep[i], slice: z.netStepSlice}
		step.limits[opDeliver] = z.deliverLimit
		step.limits[opDrain] = z.pickupLimit
		step.limits[opRead] = z.pickupLimit
		p := mergeStats(openLoop(clients, gens, env, step))
		m.r.Attempted += p.attempted
		m.r.Failed += p.failed
		if p.errs+p.transient+p.shed+p.badHashes > 0 {
			m.r.fail("open loop %d req/s: %d errors, %d transient refusals, %d shed, %d bad hashes",
				rate, p.errs, p.transient, p.shed, p.badHashes)
		}
		d, k := p.lat[opDeliver], p.lat[opDrain]
		// A rate is met when the p99 of both request kinds is within
		// its limit, nothing failed and the backlog is not growing
		// (choosing-metrics §1: the limit is on the percentile).
		d99, _ := p.sliceQuantile(opDeliver, 0.99)
		k99, _ := p.sliceQuantile(opDrain, 0.99)
		ok := d99 <= usOf(int64(z.deliverLimit)) && k99 <= usOf(int64(z.pickupLimit)) && !p.backlogGrowing() && p.failed == 0
		// Self-indictment: a generator that wakes later than its own
		// send interval is not holding the schedule; the rate's numbers
		// are then not this rate's, and it cannot count as met.
		if late, iv := time.Duration(quantile(p.late, 0.99)), step.interval(n); late > iv {
			ok = false
			m.r.detail("open loop %d req/s is INVALID: generator lateness p99 %v exceeds the per-connection send interval %v", rate, late, iv)
		}
		if p.backlogGrowing() {
			m.r.detail("open loop %d req/s is past capacity: backlog still growing in the last third (thirds %v)", rate, p.backlogPart)
		}
		if ok && rate > maxOK {
			maxOK = rate
		}
		rname := fmt.Sprintf("loadgen.r%d.", rate)
		d50, _ := p.sliceQuantile(opDeliver, 0.50)
		k50, _ := p.sliceQuantile(opDrain, 0.50)
		m.r.layer(rname+"deliver_p50_us", d50, int64(len(d)))
		m.r.layer(rname+"pickup_p50_us", k50, int64(len(k)))
		m.r.layer(rname+"deliver_p99_us", d99, int64(len(d)))
		m.r.layer(rname+"pickup_p99_us", k99, int64(len(k)))
		m.r.detail("open loop %d req/s: deliver p50/p99 %.1f/%.1f us (n=%d), pickup p50/p99 %.1f/%.1f us (n=%d), %d over limit, backlog max %d (thirds %v), lateness p99 %.1f us",
			rate, usOf(quantile(d, .5)), usOf(quantile(d, .99)), len(d),
			usOf(quantile(k, .5)), usOf(quantile(k, .99)), len(k),
			p.overLimit, p.backlogMax, p.backlogPart, usOf(quantile(p.late, .99)))
		if rate == z.netGate {
			// The generator's own figures are reported at the middle
			// rate.
			m.r.layer("loadgen.late_p50_us", usOf(quantile(p.late, 0.50)), int64(len(p.late)))
			m.r.layer("loadgen.late_p99_us", usOf(quantile(p.late, 0.99)), int64(len(p.late)))
			m.r.layer("loadgen.backlog_max", float64(p.backlogMax), 0)
		}
	}
	m.r.layer("loadgen.max_ok_rate_rps", float64(maxOK), int64(len(z.netRates)))
}

// invalid marks the workload's numbers as not the system's. A smoke
// run is far too short for the validity gates to mean anything, so it
// only notes them.
func (m *mailRun) invalid(format string, args ...any) {
	if m.cfg.smoke {
		m.r.detail("(smoke) would be INVALID: "+format, args...)
		return
	}
	m.r.fail("INVALID: "+format, args...)
}

// closeAndAudit disconnects the clients, reopens the store one last
// time (timed like every other reopen), scans every mailbox and
// compares the scan with the ledger — every acked-and-not-deleted
// message must be there, byte for byte, and nothing else — and accounts
// for stored bytes.
func (m *mailRun) closeAndAudit() {
	closeClients([]mailClient{m.client})
	if m.front != nil {
		m.front.stop()
	}
	if !m.reopenTimes(1) {
		return
	}
	store := m.ref.a

	// Audit: one Pickup per mailbox.
	var sum struct{ lost, phantom, bad, msgs int64 }
	for u := uint64(0); u < m.spec.users; u++ {
		msgs, err := store.Pickup(u)
		if err != nil {
			sum.bad++
			continue
		}
		found := make([]int, 0, len(msgs))
		for _, msg := range msgs {
			if idx, ok := m.pool.verify(msg.Contents); ok {
				found = append(found, idx)
			} else {
				sum.phantom++
			}
		}
		store.Unlock(u)
		sum.msgs += int64(len(msgs))
		lost, phantom := m.led.auditBox(u, found)
		sum.lost += lost
		sum.phantom += phantom
	}
	store.Close()
	m.r.Attempted += int64(m.spec.users)
	m.r.Failed += sum.lost + sum.phantom + sum.bad
	liveMsgs, liveBytes := m.led.liveBytes()
	m.r.detail("reopen audit: %d mailboxes, %d messages found, %d owed; audit_lost=%d audit_phantom=%d",
		m.spec.users, sum.msgs, liveMsgs, sum.lost, sum.phantom)
	if sum.lost+sum.phantom+sum.bad > 0 {
		m.r.fail("reopen audit: %d lost, %d phantom, %d unreadable mailboxes", sum.lost, sum.phantom, sum.bad)
	}

	stored, err := bytesUnder(m.base)
	if err != nil {
		m.r.fail("measuring stored bytes: %v", err)
		return
	}
	m.r.e2e("bytes_stored_per_user_byte", ratio(stored, liveBytes), liveMsgs)
	m.r.detail("storage: %d bytes in regular files for %d bytes of live user messages", stored, liveBytes)
}

// bytesUnder sums the sizes of the regular files under dir.
func bytesUnder(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
