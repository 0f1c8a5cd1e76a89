package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gfs"
	"repro/internal/history"
	"repro/internal/machine"
	"repro/internal/mailboat"
	"repro/internal/postal"
	"repro/internal/spec"
	"repro/internal/suite"
)

// This file is the checker side: the check-suite workload (a
// sequential pass over suite.Verified(), conviction rounds over
// suite.Bugs()), the checker canary every mail-* workload ends with,
// the mail canary check-suite carries, and — for the traced run — the
// parallel pass, the phase timers and the machine/history/core/gfs.model
// microbenchmarks. The gated timings are taken on one P between
// yardstick samples and stated at the reference host speed
// (yardstick.go).

// entryRun is one scenario's outcome in one pass.
type entryRun struct {
	Name                 string
	Dur                  time.Duration // raw
	Norm                 time.Duration // at the reference host speed (= Dur where no yardstick ran)
	Execs, Crashed       int
	States, Pruned, Bnds int
}

// passRun is one pass over a list of entries. It is also the record a
// pass run in a child process hands back (see runPass), hence the
// exported fields.
type passRun struct {
	Dur, Norm time.Duration // sums over the entries: raw, and at the reference host speed
	HostSpeed float64       // the yardstick's median reading against the reference; 0 without one
	Entries   []entryRun
	Delta     procDelta // the explorations' own: the yardstick's share is taken out
	// PhaseNs is the phase timer's buckets (traced pass only).
	PhaseNs []int64
	// The checker canary's samples (canary pass only): seconds at the
	// reference host speed.
	CanarySeq, CanaryConv []float64
	// The mail canary's metrics and detail lines (model pass only).
	E2E    map[string]metric
	Detail []string
	// What the pass adds to the workload's result.
	PeakRSSMB float64
	Attempted int64
	Failed    int64
	Problems  []string
}

func (p passRun) sum() (execs, crashed, states, pruned, bnds int) {
	for _, e := range p.Entries {
		execs += e.Execs
		crashed += e.Crashed
		states += e.States
		pruned += e.Pruned
		bnds += e.Bnds
	}
	return
}

// pacer cuts a long piece of work into stretches with a yardstick
// sample between every two, so that each stretch is scaled by the host
// speed it ran at: a sequential pass is a quarter of a minute long and
// the host changes speed within it.
type pacer struct {
	y         *yard
	every     time.Duration
	y0        time.Duration
	from      time.Time
	raw, norm time.Duration
}

func (p *pacer) start() { p.y0, p.from = p.y.before(), time.Now() }

// tick is called at points where the work can be interrupted.
func (p *pacer) tick() {
	if now := time.Now(); now.Sub(p.from) >= p.every {
		p.cut(now)
	}
}

func (p *pacer) cut(now time.Time) {
	d := now.Sub(p.from)
	y1 := p.y.sample()
	p.raw += d
	p.norm += time.Duration(float64(d) * p.y.scaleOf(p.y0, y1))
	p.y0, p.from = y1, time.Now()
}

// stop ends the piece of work and returns its length, raw and at the
// reference host speed, yardstick time excluded.
func (p *pacer) stop() (raw, norm time.Duration) {
	p.cut(time.Now())
	raw, norm = p.raw, p.norm
	p.raw, p.norm = 0, 0
	return raw, norm
}

// wrap returns a copy of s that ticks the pacer between executions:
// Setup opens every execution, on the exploring goroutine (at Workers:
// 1), when the previous execution's machine has come to rest.
func (p *pacer) wrap(s *explore.Scenario) *explore.Scenario {
	w := *s
	w.Setup = func(m *machine.Machine) any {
		p.tick()
		return s.Setup(m)
	}
	return &w
}

// verifyPass checks every entry with its own Opts at the given worker
// count (execCap > 0 lowers budgets, smoke only). Every entry must come
// back OK; a violation is a wrong verdict. wrap, when non-nil,
// substitutes an instrumented copy of each scenario. With a yardstick
// (Workers: 1 only) every entry is paced and its time also stated at
// the reference host speed.
func verifyPass(r *result, entries []suite.Entry, workers, execCap int, wrap func(*explore.Scenario) *explore.Scenario, y *yard, every time.Duration) passRun {
	var p passRun
	var pc *pacer
	var own procDelta
	if y != nil {
		pc = &pacer{y: y, every: every}
		own = y.own
	}
	before := snapProc()
	for _, e := range entries {
		o := e.Opts
		o.Workers = workers
		if execCap > 0 && (o.MaxExecutions == 0 || o.MaxExecutions > execCap) {
			o.MaxExecutions = execCap
		}
		s := e.Scenario
		if wrap != nil {
			s = wrap(s)
		}
		var raw, norm time.Duration
		var rep *explore.Report
		if pc != nil {
			s = pc.wrap(s)
			pc.start()
			rep = explore.Run(s, o)
			raw, norm = pc.stop()
		} else {
			t1 := time.Now()
			rep = explore.Run(s, o)
			raw = time.Since(t1)
			norm = raw
		}
		p.Dur, p.Norm = p.Dur+raw, p.Norm+norm
		p.Entries = append(p.Entries, entryRun{
			Name: e.Scenario.Name, Dur: raw, Norm: norm,
			Execs: rep.Executions, Crashed: rep.CrashedExecutions, States: rep.CheckedStates,
			Pruned: rep.Stats.PrunedStates, Bnds: rep.Stats.DistinctBoundaries,
		})
		r.Attempted++
		if !rep.OK() {
			r.Failed++
			r.fail("wrong verdict: verified scenario %s reported a violation: %s", e.Scenario.Name, rep.Counterexample.Reason)
		}
	}
	p.Delta = snapProc().since(before)
	if y != nil {
		p.Delta = p.Delta.minus(y.own.minus(own))
		p.HostSpeed = y.hostSpeed()
	}
	return p
}

// convictRun is one round over the seeded bugs.
type convictRun struct {
	dur      time.Duration
	execs    int
	replays  int
	replayNs int64
}

// convictRound convicts every bug entry at Workers: 1, minimizes the
// counterexample and replays the minimized script, which must still
// fail.
func convictRound(r *result, bugs []suite.Entry) convictRun {
	var c convictRun
	t0 := time.Now()
	for _, e := range bugs {
		o := e.Opts
		o.Workers = 1
		rep := explore.Run(e.Scenario, o)
		c.execs += rep.Executions
		r.Attempted++
		if rep.OK() {
			r.Failed++
			r.fail("wrong verdict: seeded bug %s was not convicted", e.Scenario.Name)
			continue
		}
		min := explore.Minimize(e.Scenario, rep.Counterexample.Choices)
		t1 := time.Now()
		cx := explore.ReplayCx(e.Scenario, min)
		c.replayNs += int64(time.Since(t1))
		c.replays++
		if cx == nil {
			r.Failed++
			r.fail("minimized counterexample of %s does not reproduce under ReplayCx", e.Scenario.Name)
		}
	}
	c.dur = time.Since(t0)
	return c
}

// canaryScenario is the verified entry the checker canary runs: the
// paper's Mailboat proof obligation — Deliver ∥ Pickup with a crash —
// over the same library code the mail-* workloads load.
const canaryScenario = "mb/deliver+pickup+crash"

func entryNamed(entries []suite.Entry, name string) (suite.Entry, bool) {
	for _, e := range entries {
		if e.Scenario.Name == name {
			return e, true
		}
	}
	return suite.Entry{}, false
}

// pinnedBugs is suite.Bugs(), or its first few entries under smoke.
func pinnedBugs(z sizes) []suite.Entry {
	bugs := suite.Bugs()
	if z.bugCap > 0 && len(bugs) > z.bugCap {
		bugs = bugs[:z.bugCap]
	}
	return bugs
}

// canary gives a mail-* workload its verify_s and convict_s: the canary
// scenario (at a reduced execution budget) at Workers: 1, and one
// conviction round, repeated; each metric is the median of its samples,
// each sample taken between two samples of the checker's yardstick. The
// driver requires every workload to report every end-to-end metric;
// this is the smallest honest reading of the checker metrics on a
// workload that is about the mail store (README, "Why every workload
// reports every metric").
// It runs as a pass of its own (passCanary), in a child process like
// the others: in the mail workload's process its few tenths of a second
// would be spent marking that workload's heap — the message pool, the
// ledger, a million latency samples — whenever a collection fell into
// them, and read 25 % apart from run to run.
func canaryPass(cfg *runCfg, r *result, y *yard) (p passRun) {
	z := cfg.z
	e, ok := entryNamed(suite.Verified(), canaryScenario)
	if !ok {
		r.fail("checker canary: suite.Verified() has no %s", canaryScenario)
		return p
	}
	entry, bugs := []suite.Entry{e}, pinnedBugs(z)
	// Every sample starts from a collected heap, so that the collector's
	// cycles fall at the same points of every sample of every run; and
	// the verifications come first, because each conviction round leaves
	// its parked goroutines on the heap for the collector to mark.
	sample := func(f func()) []float64 {
		var out []float64
		for i := 0; i < z.canaryWarm+z.canaryReps; i++ {
			runtime.GC()
			if _, norm := y.timed(f); i >= z.canaryWarm {
				out = append(out, norm)
			}
		}
		return out
	}
	p.CanarySeq = sample(func() { verifyPass(r, entry, 1, z.canaryExecs, nil, nil, 0) })
	p.CanaryConv = sample(func() { convictRound(r, bugs) })
	p.HostSpeed = y.hostSpeed()
	return p
}

// runCanary gives r its verify_s and convict_s from a canary pass.
func runCanary(cfg *runCfg, r *result) {
	p, ok := runPass(cfg, r, passCanary)
	if !ok {
		return
	}
	r.e2e("verify_s", midMean(p.CanarySeq), int64(len(p.CanarySeq)))
	r.e2e("convict_s", midMean(p.CanaryConv), int64(len(p.CanaryConv)))
	r.detail("checker canary: first %d executions of %s at Workers 1, and every seeded bug convicted, x%d; checker yardstick host speed %.3f",
		cfg.z.canaryExecs, canaryScenario, len(p.CanarySeq), p.HostSpeed)
}

// passKind names the passes that run in a child process: the three
// check-suite runs over suite.Verified(), and the mail workloads'
// checker canary.
const (
	passSeq    = "seq"    // Workers: 1 on one P, paced by the yardstick
	passPar    = "par"    // Workers: parallel at GOMAXPROCS parallel, raw
	passTraced = "traced" // Workers: 1 on one P under the phase timers, raw
	passCanary = "canary" // the checker canary of a mail-* workload
	passModel  = "model"  // the mail canary of check-suite
)

// checkPass runs one pass in this process.
func checkPass(cfg *runCfg, kind string) passRun {
	r := newResult(kind)
	verified := suite.Verified()
	var p passRun
	switch kind {
	case passPar:
		withProcs(cfg.z.parallel, func() { p = verifyPass(r, verified, cfg.z.parallel, cfg.z.execCap, nil, nil, 0) })
	case passTraced:
		pt := newPhaseTimer()
		p = verifyPass(r, verified, 1, cfg.z.execCap, pt.wrap, nil, 0)
		pt.to(pt.self())
		p.PhaseNs = pt.ns
	default:
		y, err := newYard(cfg.z.yardCheck, "")
		if err != nil {
			r.fail("yardstick: %v", err)
			break
		}
		defer y.close()
		switch kind {
		case passCanary:
			p = canaryPass(cfg, r, y)
		case passModel:
			mc := newMailCanary(cfg, r, y)
			for i := 0; i < modelSamplings; i++ {
				mc.sample(cfg.z.modelStretches, cfg.z.modelRecover/modelSamplings+1)
			}
			mc.report()
			p.E2E, p.Detail, p.HostSpeed = r.EndToEnd, r.Detail, y.hostSpeed()
		default:
			p = verifyPass(r, verified, 1, cfg.z.execCap, nil, y, cfg.z.yardEvery)
		}
	}
	_, _, p.PeakRSSMB = rusage()
	p.Attempted, p.Failed, p.Problems = r.Attempted, r.Failed, r.Problems
	return p
}

// runPass runs one pass and folds its verdicts into r. When the
// benchmark binary can re-execute itself (cfg.exe), the pass runs in a
// child process of its own, as a developer's perennial-check run does:
// one pass of mb/replicated+crash+net leaves some 15,000 parked
// goroutines, 250 MB of heap and 115 MB of stacks behind, and every
// measurement that followed it in the same process would pay for
// marking them at each garbage collection.
func runPass(cfg *runCfg, r *result, kind string) (passRun, bool) {
	var p passRun
	if cfg.exe == "" {
		p = checkPass(cfg, kind)
	} else {
		args := []string{"--workload", wlCheckSuite, "--pass", kind, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--out", cfg.out}
		if cfg.smoke {
			args = append(args, "--smoke")
		}
		if rawTimings {
			args = append(args, "--raw")
		}
		if err := childRecord(cfg.exe, args, cfg.out, nil, cfg.log, &p); err != nil || len(p.Entries)+len(p.CanarySeq)+len(p.E2E) == 0 {
			r.fail("pass %s: %v", kind, err)
			return p, false
		}
	}
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	r.Problems = append(r.Problems, p.Problems...)
	if len(p.Problems) > 0 {
		r.Correct = false
	}
	return p, true
}

// runCheckSuite is the check-suite workload: a burst of the small
// metrics, the sequential pass(es), a burst, (traced run only) the
// parallel pass(es), a burst, the mail canary.
func runCheckSuite(cfg *runCfg) *result {
	z := cfg.z
	r := newResult(wlCheckSuite)
	verified, bugs := suite.Verified(), pinnedBugs(z)
	y, err := newYard(z.yardCheck, "")
	if err != nil {
		r.fail("yardstick: %v", err)
		return r
	}
	defer y.close()

	// Warm-up: one conviction round touches every package the bursts
	// use and grows the heap to its working size.
	warm := newResult("warm-up")
	convictRound(warm, bugs)
	r.Problems = append(r.Problems, warm.Problems...)

	cfg.logf("%s: %d sequential passes over %d verified scenarios on one P, %d conviction rounds over %d bugs",
		wlCheckSuite, z.seqPasses, len(verified), z.convictReps, len(bugs))

	// A burst samples everything that is small: set-up (building the
	// pinned scenario set — microseconds, so it is repeated) and
	// conviction rounds. Three bursts spread the samples over the run, so
	// that one of this box's fast or slow episodes covers at most some of
	// them. All in seconds at the reference host speed.
	var setups, convNorm, convRaw []float64
	var conv []convictRun
	third := (z.convictReps + 2) / 3
	burst := func(rounds int) {
		// The constructions run with the collector off: each is 20 us of
		// allocation, and with it on, whether a construction fell into a
		// mark phase (on one P the mark worker takes the P from it) decided
		// its time — the median read 18 to 25 us from run to run with the
		// heap the conviction rounds had left, 24.4 to 26.0 without.
		runtime.GC()
		gcWas := debug.SetGCPercent(-1)
		for k := 0; k < z.setupBrackets; k++ {
			var raw []float64
			scale := y.bracket(func() {
				for i := 0; i < z.setupReps; i++ {
					t0 := time.Now()
					v, b := suite.Verified(), suite.Bugs()
					raw = append(raw, time.Since(t0).Seconds())
					if len(v) != len(verified) || len(b) < len(bugs) {
						r.fail("the pinned scenario set changed size between two constructions")
					}
				}
			})
			for _, d := range raw {
				setups = append(setups, d*scale)
			}
		}
		debug.SetGCPercent(gcWas)
		for i := 0; i < rounds; i++ {
			var c convictRun
			runtime.GC() // every round starts from a collected heap
			scale := y.bracket(func() { c = convictRound(r, bugs) })
			conv = append(conv, c)
			convNorm, convRaw = append(convNorm, c.dur.Seconds()*scale), append(convRaw, c.dur.Seconds())
		}
	}
	burst(third)
	var seq []passRun
	var seqNorm, seqRaw []float64
	for i := 0; i < z.seqPasses; i++ {
		p, ok := runPass(cfg, r, passSeq)
		if !ok {
			return r
		}
		seq = append(seq, p)
		seqNorm, seqRaw = append(seqNorm, p.Norm.Seconds()), append(seqRaw, p.Dur.Seconds())
	}
	checkExact(r, seq)
	burst(third)
	rss := seq[0].PeakRSSMB
	var parDur []time.Duration
	for i := 0; i < z.parPasses && cfg.traced; i++ {
		p, ok := runPass(cfg, r, passPar)
		if !ok {
			return r
		}
		parDur = append(parDur, p.Dur)
		rss = max(rss, p.PeakRSSMB)
	}
	burst(max(z.convictReps-2*third, 1))
	r.e2e("setup_s", medianFloat(setups), int64(len(setups)))
	r.e2e("verify_s", medianFloat(seqNorm), int64(len(seqNorm)))
	r.e2e("convict_s", midMean(convNorm), int64(len(convNorm)))
	r.layer("bench.host_speed", seq[0].HostSpeed, 0)
	r.detail("yardstick host speed: %.3f of the reference in the sequential pass, %.3f in the bursts; raw (not normalised): verify_s %.6g, convict_s %.6g",
		seq[0].HostSpeed, y.hostSpeed(), medianFloat(seqRaw), midMean(convRaw))

	// Free from the untraced run (†): exact counts and raw rates of the
	// first sequential pass.
	p0 := seq[0]
	execs, crashed, states, pruned, bnds := p0.sum()
	r.layer("explore.execs", float64(execs), 1)
	r.layer("explore.crashed_execs", float64(crashed), 1)
	r.layer("explore.checked_states", float64(states), 1)
	r.layer("explore.pruned", float64(pruned), 1)
	r.layer("explore.boundaries", float64(bnds), 1)
	r.layer("explore.execs_per_s", float64(execs)/p0.Dur.Seconds(), int64(execs))
	r.layer("explore.states_per_s", float64(states)/p0.Dur.Seconds(), int64(states))
	r.layer("explore.allocs_per_exec", float64(p0.Delta.Mallocs)/float64(execs), int64(execs))
	r.layer("explore.alloc_bytes_per_exec", float64(p0.Delta.AllocBytes)/float64(execs), int64(execs))
	if cpu := p0.Delta.User + p0.Delta.Sys; cpu > 0 {
		r.layer("explore.sys_cpu_share", p0.Delta.Sys.Seconds()/cpu.Seconds(), 0)
	}
	if par := medianDuration(parDur); par > 0 {
		r.layer("explore.verify_par_s", par, int64(len(parDur)))
		r.layer("explore.parallel_speedup", medianFloat(seqRaw)/par, int64(len(parDur)))
	}
	for _, h := range heavyScenarios {
		for _, e := range p0.Entries {
			if e.Name == h.Scenario {
				r.layer("explore.heavy."+h.Key+".verify_s", e.Dur.Seconds(), int64(e.Execs))
			}
		}
	}
	r.layer("explore.bug_execs_total", float64(conv[0].execs), 1)
	r.layer("explore.replay_us_per_exec", float64(conv[0].replayNs)/1e3/float64(max(conv[0].replays, 1)), int64(conv[0].replays))
	var total procDelta
	for _, p := range seq {
		total.add(p.Delta)
	}
	total.report(r, int64(execs*len(seq)))
	// The passes' peak, not the orchestrating process's.
	r.layer("proc.peak_rss_mb", rss, 0)
	r.detail("sequential pass: %d executions (%d crashed), %d checker states, %d pruned at %d boundaries, %.0f execs/s, peak RSS %.0f MB",
		execs, crashed, states, pruned, bnds, float64(execs)/p0.Dur.Seconds(), p0.PeakRSSMB)

	if cfg.traced {
		tracedCheck(cfg, r, p0)
	}
	// The mail canary, in a process of its own like every pass: here its
	// collections would mark the conviction rounds' parked goroutines.
	if mp, ok := runPass(cfg, r, passModel); ok {
		for name, m := range mp.E2E {
			if name != opsFailedRatio {
				r.e2e(name, m.Value, m.N)
			}
		}
		r.Detail = append(r.Detail, mp.Detail...)
	}
	return r
}

// checkExact requires that, at Workers: 1, every scenario explored
// exactly the same executions, states and prunes in every pass.
func checkExact(r *result, passes []passRun) {
	for _, p := range passes[1:] {
		for i, e := range p.Entries {
			f := passes[0].Entries[i]
			if e.Execs != f.Execs || e.States != f.States || e.Pruned != f.Pruned {
				r.fail("%s is not deterministic at Workers 1: executions/states/pruned %d/%d/%d then %d/%d/%d",
					e.Name, f.Execs, f.States, f.Pruned, e.Execs, e.States, e.Pruned)
			}
		}
	}
}

// ---- traced checker pass ----

// phaseTimer attributes a Workers: 1 pass's wall time to the scenario's
// function fields, from outside: each wrapper switches the running
// bucket. Setup, Invariant and Fingerprint are plain calls, timed entry
// to exit. Init, Main, Recover and Post start an ERA whose work
// continues on spawned threads after the wrapped function returns, so
// an era's bucket runs until the next wrapper — or the refinement
// check's first Spec.Init() — takes over; it therefore includes the
// machine's era teardown. Everything else (DFS bookkeeping, dedup
// table, the refinement check) lands in the last bucket: explore.self_s.
type phaseTimer struct {
	ns   []int64 // len(checkPhases)+1; the last is self
	cur  int
	last time.Time
}

func newPhaseTimer() *phaseTimer {
	return &phaseTimer{ns: make([]int64, len(checkPhases)+1), cur: len(checkPhases), last: time.Now()}
}

func (p *phaseTimer) to(k int) {
	now := time.Now()
	p.ns[p.cur] += int64(now.Sub(p.last))
	p.cur, p.last = k, now
}

func (p *phaseTimer) self() int { return len(checkPhases) }

// timedSpec hands the clock back to the self bucket when the
// refinement check begins.
type timedSpec struct {
	spec.Interface
	p *phaseTimer
}

func (s timedSpec) Init() spec.State {
	s.p.to(s.p.self())
	return s.Interface.Init()
}

// Indices into checkPhases.
const (
	phSetup = iota
	phInit
	phMain
	phRecover
	phPost
	phInvariant
	phFingerprint
)

// wrap returns a copy of s whose function fields run under the timer.
// nil fields stay nil: nil-ness is behaviour (a nil Fingerprint turns
// dedup off).
func (p *phaseTimer) wrap(s *explore.Scenario) *explore.Scenario {
	w := *s
	w.Spec = timedSpec{Interface: s.Spec, p: p}
	w.Setup = func(m *machine.Machine) any {
		p.to(phSetup)
		defer p.to(p.self())
		return s.Setup(m)
	}
	if s.Init != nil {
		w.Init = func(t *machine.T, world any) { p.to(phInit); s.Init(t, world) }
	}
	w.Main = func(t *machine.T, world any, h *explore.Harness) { p.to(phMain); s.Main(t, world, h) }
	if s.Recover != nil {
		w.Recover = func(t *machine.T, world any) { p.to(phRecover); s.Recover(t, world) }
	}
	if s.Post != nil {
		w.Post = func(t *machine.T, world any, h *explore.Harness) { p.to(phPost); s.Post(t, world, h) }
	}
	if s.Invariant != nil {
		w.Invariant = func(m *machine.Machine, world any) error {
			p.to(phInvariant)
			defer p.to(p.self())
			return s.Invariant(m, world)
		}
	}
	if s.Fingerprint != nil {
		w.Fingerprint = func(world any, b []byte) []byte {
			p.to(phFingerprint)
			defer p.to(p.self())
			return s.Fingerprint(world, b)
		}
	}
	return &w
}

// tracedCheck is the traced half of check-suite: one more Workers: 1
// pass under the phase timers (its counts must equal the untraced
// pass's), then the microbenchmarks of the layers under explore.
func tracedCheck(cfg *runCfg, r *result, untraced passRun) {
	p, ok := runPass(cfg, r, passTraced)
	if !ok || len(p.PhaseNs) != len(checkPhases)+1 {
		r.fail("the traced pass returned no phase times")
		return
	}
	checkExact(r, []passRun{untraced, p})
	var phases int64
	for i, name := range checkPhases {
		r.layer("explore.phase_s."+name, float64(p.PhaseNs[i])/1e9, 0)
		phases += p.PhaseNs[i]
	}
	self := p.PhaseNs[len(checkPhases)]
	r.layer("explore.self_s", float64(self)/1e9, 0)
	r.layer("bench.shim_overhead_ratio", p.Dur.Seconds()/untraced.Dur.Seconds(), 1)
	r.layer("bench.unattributed_ratio", 0, 0)
	r.detail("traced pass: %.3f s in scenario phases + %.3f s explore self = %.3f s (untraced pass %.3f s)",
		float64(phases)/1e9, float64(self)/1e9, p.Dur.Seconds(), untraced.Dur.Seconds())

	microMachine(cfg, r)
	microHistory(cfg, r)
	microCore(cfg, r)
	microModel(cfg, r)
}

// mallocsDuring runs f and returns the heap objects it allocated.
func mallocsDuring(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// era runs fn as one crash-free era and reports a machine violation.
func era(r *result, m *machine.Machine, ch machine.Chooser, what string, fn func(t *machine.T)) {
	if res := m.RunEra(ch, false, fn); res.Outcome != machine.Done {
		r.fail("%s: machine era ended %v: %v", what, res.Outcome, res.Err)
	}
}

// microMachine measures the modeled machine's primitives the way
// internal/machine/bench_test.go does, at a fixed iteration count.
func microMachine(cfg *runCfg, r *result) {
	n := cfg.z.microN
	perOp := func(name string, iters int, steps int, body func(t *machine.T)) time.Duration {
		m := machine.New(machine.Options{MaxSteps: steps + 10})
		t0 := time.Now()
		era(r, m, machine.SeqChooser{}, name, body)
		d := time.Since(t0)
		r.layer(name, float64(d.Nanoseconds())/float64(iters), int64(iters))
		return d
	}
	allocs := mallocsDuring(func() {
		perOp("machine.step_ns", n, n, func(t *machine.T) {
			for i := 0; i < n; i++ {
				t.Step("bench")
			}
		})
	})
	r.layer("machine.allocs_per_step", float64(allocs)/float64(n), int64(n))
	perOp("machine.refop_ns", n, 3*n, func(t *machine.T) {
		ref := machine.NewRef(t, "x", 0)
		for i := 0; i < n; i++ {
			ref.Store(t, ref.Load(t))
		}
	})
	perOp("machine.lock_ns", n, 2*n, func(t *machine.T) {
		l := machine.NewLock(t, "l")
		for i := 0; i < n; i++ {
			l.Acquire(t)
			l.Release(t)
		}
	})
	// Every spawned thread stays parked until the spawner finishes, so
	// the count is kept small: each is a goroutine stack.
	spawns := min(n/50+1, 4000)
	perOp("machine.spawn_ns", spawns, 2*spawns, func(t *machine.T) {
		for i := 0; i < spawns; i++ {
			t.Go(func(*machine.T) {})
		}
	})
	eras := n/10 + 1
	t0 := time.Now()
	for i := 0; i < eras; i++ {
		m := machine.New(machine.Options{})
		era(r, m, machine.SeqChooser{}, "machine.era_ns", func(t *machine.T) { t.Step("one") })
	}
	r.layer("machine.era_ns", float64(time.Since(t0).Nanoseconds())/float64(eras), int64(eras))
}

// contendedHistory is ablation_bench_test.go's crossHistory(4): five
// overlapping deliveries into a mailbox with four free IDs, which the
// checker must exhaust to reject.
func contendedHistory() (spec.Interface, history.History) {
	const n = 4
	sp := mailboat.Spec(mailboat.Config{Users: 1, RandBound: n})
	var h history.History
	for i := 0; i <= n; i++ {
		h = append(h, history.Event{Kind: history.Invoke, ID: history.OpID(i), Op: mailboat.OpDeliver{User: 0, Msg: "m"}})
	}
	for i := 0; i <= n; i++ {
		h = append(h, history.Event{Kind: history.Return, ID: history.OpID(i), Op: mailboat.OpDeliver{User: 0, Msg: "m"}, Ret: true})
	}
	return sp, h
}

// typicalHistory is the shape a Mailboat execution produces: three
// deliveries overlapping a pickup, a crash, and a post-crash pickup
// that sees all three. It is accepted.
func typicalHistory() (spec.Interface, history.History) {
	sp := mailboat.Spec(mailboat.Config{Users: 1, RandBound: 3})
	var h history.History
	bodies := []string{"a", "b", "c"}
	for i, b := range bodies {
		h = append(h, history.Event{Kind: history.Invoke, ID: history.OpID(i), Op: mailboat.OpDeliver{User: 0, Msg: b}})
	}
	h = append(h, history.Event{Kind: history.Invoke, ID: 3, Op: mailboat.OpPickup{User: 0}})
	h = append(h, history.Event{Kind: history.Return, ID: 3, Op: mailboat.OpPickup{User: 0}, Ret: []mailboat.Message{}})
	for i, b := range bodies {
		h = append(h, history.Event{Kind: history.Return, ID: history.OpID(i), Op: mailboat.OpDeliver{User: 0, Msg: b}, Ret: true})
	}
	h = append(h, history.Event{Kind: history.Crash})
	h = append(h, history.Event{Kind: history.Invoke, ID: 4, Op: mailboat.OpPickup{User: 0}})
	h = append(h, history.Event{Kind: history.Return, ID: 4, Op: mailboat.OpPickup{User: 0}, Ret: []mailboat.Message{
		{ID: mailboat.MsgName(0), Contents: "a"}, {ID: mailboat.MsgName(1), Contents: "b"}, {ID: mailboat.MsgName(2), Contents: "c"},
	}})
	return sp, h
}

func microHistory(cfg *runCfg, r *result) {
	n := cfg.z.microChecks
	sp, h := contendedHistory()
	var res history.Result
	t0 := time.Now()
	allocs := mallocsDuring(func() {
		for i := 0; i < n; i++ {
			res = history.Check(sp, h)
		}
	})
	d := time.Since(t0)
	if res.OK {
		r.fail("history: the over-full mailbox history was accepted")
	}
	r.layer("history.check_us_contended", float64(d.Microseconds())/float64(n), int64(n))
	r.layer("history.states_contended", float64(res.StatesExplored), 1)
	r.layer("history.allocs_per_check", float64(allocs)/float64(n), int64(n))

	sp, h = typicalHistory()
	t0 = time.Now()
	for i := 0; i < 10*n; i++ {
		res = history.Check(sp, h)
	}
	d = time.Since(t0)
	if !res.OK {
		r.fail("history: the typical Mailboat history was rejected: %s", res.Reason)
	}
	r.layer("history.check_us_typical", float64(d.Nanoseconds())/1e3/float64(10*n), int64(10*n))
}

// microCore is bench_test.go's Table 1 cycle: allocate a durable
// resource, deposit, update, crash, resynthesize, update.
func microCore(cfg *runCfg, r *result) {
	n := cfg.z.microN/20 + 1
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m := machine.New(machine.Options{})
		c := core.NewCtx(m)
		var ms *core.Master
		era(r, m, machine.SeqChooser{}, "core.lease_cycle_ns", func(t *machine.T) {
			var ls *core.Lease
			ms, ls = c.NewDurable(t, "d[0]", uint64(0))
			c.DepositMaster(t, ms)
			c.Update(t, ms, ls, uint64(1), nil)
		})
		m.CrashReset()
		era(r, m, machine.SeqChooser{}, "core.lease_cycle_ns", func(t *machine.T) {
			ms2, ls2 := ms.Resynthesize(t)
			c.Update(t, ms2, ls2, uint64(2), nil)
		})
	}
	r.layer("core.lease_cycle_ns", float64(time.Since(t0).Nanoseconds())/float64(n), int64(n))
}

// microModel is one mailboat deliver + drain on gfs.NewModel under
// machine.SeqChooser: what every mb/* execution is made of. The step
// count is exact.
func microModel(cfg *runCfg, r *result) {
	n := 5 * cfg.z.microChecks
	cfgMB := mailboat.Config{Users: 1, RandBound: 4}
	m := machine.New(machine.Options{MaxSteps: math.MaxInt / 2})
	fs := gfs.NewModel(m, mailboat.Dirs(cfgMB))
	var mb *mailboat.Mailboat
	era(r, m, machine.SeqChooser{}, "gfs.model init", func(t *machine.T) { mb = mailboat.Init(t, nil, fs, cfgMB) })
	body := []byte("the quick brown fox.")
	steps0 := m.Steps()
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		era(r, m, machine.SeqChooser{}, "gfs.model.deliver_us", func(t *machine.T) {
			if !mb.Deliver(t, nil, 0, body) {
				t.Failf("modelled deliver failed")
			}
			for _, msg := range mb.Pickup(t, nil, 0) {
				mb.Delete(t, nil, 0, msg.ID)
			}
			mb.Unlock(t, nil, 0)
		})
		total += time.Since(t0)
		m.ResetTrace()
	}
	r.layer("gfs.model.deliver_us", float64(total.Nanoseconds())/1e3/float64(n), int64(n))
	r.layer("gfs.model.steps_per_deliver", float64(m.Steps()-steps0)/float64(n), int64(n))
}

// ---- mail canary ----

// modelSamplings is how many samplings the mail canary consists of.
const modelSamplings = 6

// mailCanary gives check-suite its mail metrics: the mail library on
// the MODEL file system, driven one era per request on a machine — the
// substrate every mb/* scenario executes on. One modelled client runs
// the mail-direct mix over a few mailboxes; latencies are per era. It
// moves when machine, gfs.Model or mailboat move, which is exactly what
// moves verify_s, and not when the serving stack does. It runs as a pass
// of its own (passModel). Every stretch builds a fresh machine and
// model: gfs.Model never frees an unlinked
// inode's bytes (its executions are a few operations long), so a
// long-lived model store would grow without bound and the canary would
// measure the garbage collector.
type mailCanary struct {
	cfg  *runCfg
	r    *result
	y    *yard // the checker's yardstick: the canary's diet is the checker's
	pool *msgPool
	gen  *opGen
	rng  *rand.Rand

	all      *phase
	recovers []float64 // seconds at the reference host speed
	// The last stretch's store, for the storage ratio.
	stored, liveBytes, liveMsgs int64
	lost, phantom               int64
}

func newMailCanary(cfg *runCfg, r *result, y *yard) *mailCanary {
	c := &mailCanary{cfg: cfg, r: r, y: y, all: &phase{}, rng: rand.New(rand.NewSource(cfg.seed))}
	c.pool = newMsgPool(cfg.seed, cfg.z.poolPerClass)
	c.gen = newOpGen(postal.Workload{Users: cfg.z.modelUsers}, opMix{deliver: 0.5}, c.pool, cfg.seed, 0)
	return c
}

// modelWorld is one stretch's machine, model store and library.
type modelWorld struct {
	c     *mailCanary
	cfgMB mailboat.Config
	m     *machine.Machine
	fs    *gfs.Model
	ch    machine.Chooser
	mb    *mailboat.Mailboat
	env   *mailEnv
}

func (c *mailCanary) newWorld() *modelWorld {
	z := c.cfg.z
	w := &modelWorld{c: c, env: &mailEnv{pool: c.pool, ledger: newLedger(c.pool, z.modelUsers)}}
	w.cfgMB = mailboat.Config{Users: z.modelUsers, RandBound: 1 << 62, SyncOnDeliver: true, SyncDirs: true}
	w.m = machine.New(machine.Options{MaxSteps: math.MaxInt / 2})
	w.fs = gfs.NewModel(w.m, mailboat.Dirs(w.cfgMB))
	// Names come from a seeded stream; every other choice takes option
	// 0, so the run is deterministic and never crashes mid-era.
	w.ch = machine.ChooserFunc(func(n int, tag string) int {
		if tag == "rand" {
			return c.rng.Intn(n)
		}
		return 0
	})
	era(c.r, w.m, w.ch, "mail canary init", func(t *machine.T) { w.mb = mailboat.Init(t, nil, w.fs, w.cfgMB) })
	return w
}

// do performs one request as one machine era.
func (w *modelWorld) do(o op) session {
	var s session
	era(w.c.r, w.m, w.ch, "mail canary "+o.kind.String(), func(t *machine.T) {
		if o.kind == opDeliver {
			if !w.mb.Deliver(t, nil, o.user, w.c.pool.msgs[o.msg]) {
				s.err = fmt.Errorf("modelled deliver refused")
			}
			return
		}
		s.msgs = w.mb.Pickup(t, nil, o.user)
		s.deleted = make([]bool, len(s.msgs))
		for i, msg := range s.msgs {
			s.deleted[i] = w.mb.Delete(t, nil, o.user, msg.ID)
		}
		w.mb.Unlock(t, nil, o.user)
	})
	w.m.ResetTrace()
	return s
}

// sample runs `stretches` stretches of the modelled closed loop, each on
// a fresh world audited against the stretch's ledger; then times
// `recovers` modelled crash + Recover cycles on a small fixed-size
// store. The modelled client is one logical thread on one P, as
// everything gated is: with a second P idle the runtime wakes it for
// every readied machine thread — a futex per step whose cost on this
// sandbox swings with the host's mood. A stretch is a fixed number of
// requests from a collected heap, not a length of time: the model store
// only grows, so a request costs more the more came before it, and a
// stretch that got further on a fast host would read slower for it.
func (c *mailCanary) sample(stretches, recovers int) {
	z := c.cfg.z
	var w *modelWorld
	for i := 0; i < stretches; i++ {
		w = nil
		runtime.GC()
		w = c.newWorld()
		st := closedLoop(w.do, c.gen, w.env, c.y, 0, z.modelSlices, 0, z.modelSliceOps)
		c.all.append(mergeStats([]*clientStats{st}))
		c.audit(w)
	}

	// Recovery is timed on a second fresh world holding exactly two
	// messages per mailbox: the loop's world has by now some thousands
	// of unlinked inodes the model never frees, and its crash handler
	// walks them all.
	w = c.newWorld()
	for u := uint64(0); u < z.modelUsers; u++ {
		var fill clientStats
		for k := 0; k < 2; k++ {
			o := op{kind: opDeliver, user: u, msg: (int(u) + k*c.pool.perClass) % len(c.pool.msgs)}
			if !fill.settle(w.env, o, w.do(o)) {
				c.r.fail("mail canary: a preload delivery failed")
			}
		}
	}
	var raw []float64
	scale := c.y.bracket(func() {
		for i := 0; i < recovers; i++ {
			t0 := time.Now()
			w.m.CrashReset()
			era(c.r, w.m, w.ch, "mail canary recover", func(t *machine.T) { w.mb = mailboat.Recover(t, nil, w.fs, w.cfgMB, nil) })
			raw = append(raw, time.Since(t0).Seconds())
			w.m.ResetTrace()
		}
	})
	for _, d := range raw {
		c.recovers = append(c.recovers, d*scale)
	}
	c.stored, c.liveMsgs, c.liveBytes = c.audit(w)
}

// audit compares a world's model store with its ledger and returns the
// store's bytes and what the ledger says it owes.
func (c *mailCanary) audit(w *modelWorld) (stored, liveMsgs, liveBytes int64) {
	z := c.cfg.z
	for u := uint64(0); u < z.modelUsers; u++ {
		var found []int
		for _, body := range w.fs.PeekDir(mailboat.UserDir(u)) {
			stored += int64(len(body))
			if idx, ok := c.pool.verify(string(body)); ok {
				found = append(found, idx)
			} else {
				c.phantom++
			}
		}
		l, ph := w.env.ledger.auditBox(u, found)
		c.lost, c.phantom = c.lost+l, c.phantom+ph
	}
	for _, body := range w.fs.PeekDir(mailboat.SpoolDir) {
		stored += int64(len(body))
	}
	c.r.Attempted += int64(z.modelUsers)
	liveMsgs, liveBytes = w.env.ledger.liveBytes()
	return stored, liveMsgs, liveBytes
}

// report fills the mail metrics.
func (c *mailCanary) report() {
	r, p := c.r, c.all
	r.Attempted += p.attempted
	r.Failed += p.failed + c.lost + c.phantom
	r.e2e("throughput_rps", p.throughput(), int64(len(p.slices)))
	p.gatedLatencies(r, opDrain)
	r.e2e("recover_s", medianFloat(c.recovers), int64(len(c.recovers)))
	if c.lost+c.phantom > 0 {
		r.fail("mail canary audit: %d lost, %d phantom", c.lost, c.phantom)
	}
	r.e2e("bytes_stored_per_user_byte", ratio(c.stored, c.liveBytes), c.liveMsgs)
	r.detail("mail canary (mailboat on gfs.Model, one era per request): %d requests in %d slices, %d crash+recover cycles; audit_lost=%d audit_phantom=%d",
		p.requests(), len(p.slices), len(c.recovers), c.lost, c.phantom)
}
