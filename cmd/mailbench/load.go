package main

// The load harness: an open-loop, multi-tenant traffic generator with
// sustained mid-load drills — the scoreboard run of ROADMAP's
// "million-mailbox load harness". It drives the real mailboatd stack
// (the same adapter cmd/mailboat serves SMTP/POP3 from) at a fixed
// offered rate over a zipfian-skewed mailbox population, executes a
// seeded schedule of drills (crash-restart, fault burst, corruption
// flip, replica partition) while the load keeps flowing, buckets
// latency into steady vs drill phases, holds the steady phases to the
// declared SLO gates, and audits the durability contract afterwards:
// zero acked-mail loss, no resurrected deletes, no torn or corrupt
// bytes served, byte-identical replicas.
//
// Honesty notes, mirrored in docs/DURABILITY.md:
//   - The crash drill is a *process* restart with full crash recovery
//     (spool sweep, resilver/scrub, replica resync), quiesced at the
//     adapter boundary: in-flight requests drain before the store
//     closes. Mid-operation and mid-fsync crashes — the states a
//     process restart cannot reach — are the model checker's job
//     (mb/deliver+pickup+crash, mb/writeback+*); the harness proves
//     the same recovery code digests a live store under load.
//   - Under -no-fsync the zero-loss audit is reported but not
//     enforced (LossChecked=false): the weaker checked contract is
//     prefix durability, owned by mb/writeback+prefix-contract.

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gfs"
	"repro/internal/mailboat"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/postal"
	"repro/internal/trace"
)

// Drill names accepted by -drill.
const (
	drillCrash     = "crash"     // close the primary, reopen through full crash recovery
	drillFault     = "fault"     // crash-restart into a seeded transient-fault burst
	drillCorrupt   = "corrupt"   // flip live bytes on one replica, heal-scrub under load
	drillPartition = "partition" // cut the replication link, heal, catch-up resync
	drillDiskFull  = "diskfull"  // force the no-space latch: fill, shed, free, recover
)

// loadConfig is the flag surface of a load run (defineFlags fills it,
// replayCommand renders it back); workers is derived, not a flag.
type loadConfig struct {
	base     string
	users    uint64
	rate     float64
	duration time.Duration
	seed     int64
	noFsync  bool
	skew     string
	zipfS    float64
	mix      float64
	drills   []string
	workers  int
}

// drillRecord is the outcome of one executed drill.
type drillRecord struct {
	Name   string
	AtSec  float64 // scheduled offset into the run
	DurSec float64 // how long the drill action took
	Detail string
	OK     bool
}

// loadAudit is the post-run durability audit.
type loadAudit struct {
	Acked       int
	Deleted     int
	Present     int
	Lost        int
	Resurrected int
	BadHashes   int
	// LossChecked is false under -no-fsync: the zero-loss numbers are
	// reported but the weaker prefix-durability contract (checked by
	// mb/writeback+prefix-contract) is not enforced here.
	LossChecked     bool
	ZeroAckedLoss   bool
	ResyncSec       *float64
	StoresIdentical *bool
	// FinalScrub is the last heal-scrub's report on the mirror+checksum
	// deployment; the sweep above then ran after a reboot.
	FinalScrub string
}

// loadOutcome bundles everything a load run reports.
type loadOutcome struct {
	Deployment string
	Res        postal.OpenLoopResult
	Gates      []postal.GateResult
	PhaseGates []postal.PhaseGateResult
	SLOPass    bool
	Drills     []drillRecord
	Audit      loadAudit
}

// deploymentFor picks the store deployment the requested drills need.
// Whether the drills' needs compose is not restated here: they are
// written down as the mailboatd.Options a store serving them all would
// boot with, and Options.Validate (gfs.StackSpec.Validate's table plus
// the Replica rule) accepts or refuses.
func deploymentFor(drills []string) (string, error) {
	has := map[string]bool{}
	for _, d := range drills {
		switch d {
		case drillCrash, drillFault, drillCorrupt, drillPartition, drillDiskFull:
			// diskfull works on every deployment (the shed surface is on
			// the adapter itself) and forces none.
			has[d] = true
		default:
			return "", fmt.Errorf("unknown drill %q (valid: %s, %s, %s, %s, %s)",
				d, drillCrash, drillFault, drillCorrupt, drillPartition, drillDiskFull)
		}
	}
	needs := mailboatd.Options{Users: 1, Checksum: has[drillCorrupt]}
	if has[drillCorrupt] {
		needs.MirrorRoot = "mirror"
	}
	if has[drillFault] {
		needs.Fault = &mailboatd.FaultOptions{}
	}
	if has[drillPartition] {
		needs.Replica = &mailboatd.ReplicaOptions{ListenAddr: "backup"}
	}
	if err := needs.Validate(); err != nil {
		return "", fmt.Errorf("drills %s do not share a deployment: %w", strings.Join(drills, ","), err)
	}
	switch {
	case has[drillPartition]:
		return "replicated", nil
	case has[drillCorrupt]:
		return "mirror+checksum", nil
	default:
		return "plain", nil
	}
}

// drillSchedule spaces n drills evenly through the run — drill i
// fires at (i+1)·D/(n+1) — and cuts the run into alternating gated
// steady windows and ungated drill windows. The drill window spans
// half the inter-drill gap, generous enough to also absorb the
// backlog drain after a restart, so the following steady window
// measures steady state again. Everything is a pure function of
// (drills, duration): the schedule is as replayable as the seed.
func drillSchedule(drills []string, d time.Duration) ([]postal.PhaseWindow, []time.Duration) {
	n := len(drills)
	if n == 0 {
		return nil, nil
	}
	gap := d / time.Duration(n+1)
	dwell := gap / 2
	var windows []postal.PhaseWindow
	times := make([]time.Duration, n)
	seen := map[string]int{}
	prevEnd := time.Duration(0)
	for i, name := range drills {
		at := gap * time.Duration(i+1)
		times[i] = at
		windows = append(windows, postal.PhaseWindow{
			Name: fmt.Sprintf("steady-%d", i), Start: prevEnd, End: at, Gated: true,
		})
		label := name
		if seen[name] > 0 {
			label = fmt.Sprintf("%s#%d", name, seen[name]+1)
		}
		seen[name]++
		windows = append(windows, postal.PhaseWindow{Name: label, Start: at, End: at + dwell})
		prevEnd = at + dwell
	}
	windows = append(windows, postal.PhaseWindow{
		Name: fmt.Sprintf("steady-%d", n), Start: prevEnd, End: 0, Gated: true,
	})
	return windows, times
}

// loadHarness adapts a mailboatd deployment to postal.Backend and
// owns the drill surface. Requests take the read half of mu; drills
// that replace the adapter (crash, fault) take the write half, so a
// restart drains in-flight requests, swaps stores, and the queueing
// shows up as open-loop latency — never as a torn call into a closed
// store.
type loadHarness struct {
	cfg        loadConfig
	deployment string

	mu      sync.RWMutex
	primary *mailboatd.Adapter
	backup  *mailboatd.Adapter // replicated deployment only

	proot, broot, mroot string
	baddr               string
	cleanups            []func()

	// epoch fences POP3-style sessions across restarts: a restart
	// invalidates the library's in-memory per-user locks, so Delete
	// and Unlock calls from a session that began on the old adapter
	// must be dropped, not aimed at the new one.
	epoch     atomic.Uint64
	sessEpoch []uint64 // indexed by worker; single-writer per worker

	spans []*trace.Span // indexed by worker; single-writer per worker

	acked   sync.Map // message body -> true, on acked Deliver
	deleted sync.Map // message body -> true, on acked Delete
	ids     sync.Map // "user/id" -> body, recorded at Pickup

	drillMu sync.Mutex
	drills  []drillRecord
	bursts  int // fault bursts executed (varies the burst seed)
}

func newLoadHarness(cfg loadConfig, deployment string) (*loadHarness, error) {
	h := &loadHarness{
		cfg:        cfg,
		deployment: deployment,
		sessEpoch:  make([]uint64, cfg.workers),
		spans:      make([]*trace.Span, cfg.workers),
	}
	base := cfg.base
	if base == "" {
		base = postal.RAMDir()
	}
	mk := func(label string) (string, error) {
		root, err := os.MkdirTemp(base, "mailbench-load-"+label+"-*")
		if err != nil {
			return "", err
		}
		h.cleanups = append(h.cleanups, func() { os.RemoveAll(root) })
		return root, nil
	}
	var err error
	if h.proot, err = mk("p"); err != nil {
		return nil, err
	}
	switch deployment {
	case "mirror+checksum":
		if h.mroot, err = mk("m"); err != nil {
			h.close()
			return nil, err
		}
	case "replicated":
		if h.broot, err = mk("b"); err != nil {
			h.close()
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, err
		}
		h.baddr = lis.Addr().String()
		lis.Close()
		backup, err := mailboatd.NewWithOptions(h.broot, mailboatd.Options{
			Users:         cfg.users,
			Seed:          cfg.seed + 1,
			SyncOnDeliver: !cfg.noFsync,
			SyncDirs:      !cfg.noFsync,
			Replica:       &mailboatd.ReplicaOptions{ListenAddr: h.baddr},
		})
		if err != nil {
			h.close()
			return nil, err
		}
		h.backup = backup
	}
	primary, err := mailboatd.NewWithOptions(h.proot, h.primaryOptions(nil))
	if err != nil {
		h.close()
		return nil, err
	}
	h.primary = primary
	return h, nil
}

// primaryOptions builds the primary's option set for the deployment;
// fault (only legal on the plain deployment) runs the store behind a
// seeded transient-fault schedule.
func (h *loadHarness) primaryOptions(fault *mailboatd.FaultOptions) mailboatd.Options {
	o := mailboatd.Options{
		Users:         h.cfg.users,
		Seed:          h.cfg.seed,
		SyncOnDeliver: !h.cfg.noFsync,
		SyncDirs:      !h.cfg.noFsync,
		Fault:         fault,
	}
	switch h.deployment {
	case "mirror+checksum":
		o.MirrorRoot = h.mroot
		o.Checksum = true
	case "replicated":
		o.Replica = &mailboatd.ReplicaOptions{
			Primary:      true,
			PeerAddr:     h.baddr,
			CallTimeout:  2 * time.Second,
			PingEvery:    25 * time.Millisecond,
			RetryBackoff: time.Millisecond,
		}
	}
	return o
}

func (h *loadHarness) close() {
	if h.primary != nil {
		h.primary.Close()
		h.primary = nil
	}
	if h.backup != nil {
		h.backup.Close()
		h.backup = nil
	}
	for i := len(h.cleanups) - 1; i >= 0; i-- {
		h.cleanups[i]()
	}
	h.cleanups = nil
}

// SetWorkerSpan implements postal.SpanCarrier.
func (h *loadHarness) SetWorkerSpan(w int, sp *trace.Span) { h.spans[w] = sp }

// Deliver implements postal.Backend, tracking acked bodies for the
// zero-loss audit.
func (h *loadHarness) Deliver(w int, user uint64, msg []byte) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	err := h.primary.DeliverTraced(h.spans[w], user, msg)
	if err == nil {
		h.acked.Store(string(msg), true)
	}
	return err
}

// Pickup implements postal.Backend, recording id→body so a later
// acked Delete can be credited to its message.
func (h *loadHarness) Pickup(w int, user uint64) ([]mailboat.Message, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	h.sessEpoch[w] = h.epoch.Load()
	msgs, err := h.primary.PickupTraced(h.spans[w], user)
	if err == nil {
		for _, m := range msgs {
			h.ids.Store(idKey(user, m.ID), m.Contents)
		}
	}
	return msgs, err
}

// Delete implements postal.Backend. A session fenced by a restart is
// dropped: its per-user lock died with the old adapter.
func (h *loadHarness) Delete(w int, user uint64, id string) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.sessEpoch[w] != h.epoch.Load() {
		return nil
	}
	err := h.primary.DeleteTraced(h.spans[w], user, id)
	if err == nil {
		if v, ok := h.ids.Load(idKey(user, id)); ok {
			h.deleted.Store(v.(string), true)
		}
	}
	return err
}

// Unlock implements postal.Backend.
func (h *loadHarness) Unlock(w int, user uint64) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.sessEpoch[w] != h.epoch.Load() {
		return
	}
	h.primary.Unlock(user)
}

func idKey(user uint64, id string) string {
	return fmt.Sprintf("%d/%s", user, id)
}

// restart closes the primary and reopens it through full crash
// recovery (spool sweep; resilver+scrub on the mirrored deployment;
// epoch fencing and catch-up resync on the replicated one), draining
// in-flight requests first and fencing POP3 sessions that straddle
// the boundary.
func (h *loadHarness) restart(fault *mailboatd.FaultOptions) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.primary.Close()
	h.epoch.Add(1)
	a, err := mailboatd.NewWithOptions(h.proot, h.primaryOptions(fault))
	if err != nil {
		return fmt.Errorf("reopening the store after the crash drill: %w", err)
	}
	h.primary = a
	return nil
}

// execDrill runs one scheduled drill and records its outcome.
func (h *loadHarness) execDrill(name string, at time.Duration, dwell time.Duration) {
	rec := drillRecord{Name: name, AtSec: at.Seconds()}
	start := time.Now()
	switch name {
	case drillCrash:
		if err := h.restart(nil); err != nil {
			rec.Detail = err.Error()
		} else {
			rec.OK, rec.Detail = true, "close + full crash recovery"
		}
	case drillFault:
		h.drillMu.Lock()
		burst := h.bursts
		h.bursts++
		h.drillMu.Unlock()
		fo := &mailboatd.FaultOptions{
			// A fresh seed per burst: distinct replayable schedules.
			Seed: h.cfg.seed + 1000*int64(burst+1),
			// 1-in-8 per transient class, capped: a burst, not a new
			// steady state. UniformRates leaves the durable classes
			// (corrupt, fail-stop) at zero.
			Rates:     gfs.UniformRates(8),
			MaxFaults: 96,
		}
		if err := h.restart(fo); err != nil {
			rec.Detail = err.Error()
		} else {
			rec.OK = true
			rec.Detail = fmt.Sprintf("restart + seeded burst (seed %d, <=96 faults at 1-in-8)", fo.Seed)
		}
	case drillCorrupt:
		h.mu.RLock()
		path := h.primary.CorruptReplica(0)
		if path == "" {
			rec.Detail = "nothing to corrupt (no published mailbox files on replica 0 yet)"
			h.mu.RUnlock()
			break
		}
		rep, _ := h.primary.Scrub(true)
		detected := h.primary.IntegrityDetected()
		h.mu.RUnlock()
		rec.OK = detected > 0 && rep.Clean()
		rec.Detail = fmt.Sprintf("flipped %s; heal scrub %s; detected=%d", path, rep, detected)
	case drillPartition:
		h.mu.RLock()
		tr := h.primary.ReplTransport()
		h.mu.RUnlock()
		if tr == nil {
			rec.Detail = "no replication transport (not a replicated deployment?)"
			break
		}
		cut := dwell / 3
		if cut > 500*time.Millisecond {
			cut = 500 * time.Millisecond
		}
		tr.Partition(true)
		time.Sleep(cut)
		tr.Partition(false)
		rec.OK = true
		rec.Detail = fmt.Sprintf("replication link cut %v, healed", cut.Round(time.Millisecond))
	case drillDiskFull:
		// Fill: force the store's no-space signal (the drill analog of a
		// full disk), so admission control sheds every delivery while the
		// load keeps arriving. Shed probes are composed and would be
		// tracked if they slipped through — an ack while "full" must
		// survive the audit like any other ack.
		sampler := postal.NewSampler(postal.Workload{Users: h.cfg.users}, h.cfg.seed+13, 1<<20)
		h.mu.RLock()
		h.primary.ForceNoSpace()
		probe := postal.Compose(sampler.Rng(), 64)
		perr := h.primary.DeliverTraced(nil, 0, probe)
		if perr == nil {
			h.acked.Store(string(probe), true)
		}
		st := h.primary.ShedStatus()
		h.mu.RUnlock()
		shedOK := perr != nil && isInsufficientStorage(perr) && st != nil && st.Shedding

		// Dwell full for a slice of the drill window: the open-loop
		// workload keeps offering and must be refused, not hung or lost.
		hold := dwell / 3
		if hold > 500*time.Millisecond {
			hold = 500 * time.Millisecond
		}
		time.Sleep(hold)

		// Free: release the latch and measure time back to the first
		// committed delivery.
		h.mu.RLock()
		h.primary.ReleaseNoSpace()
		h.mu.RUnlock()
		freed := time.Now()
		recovered := false
		for time.Since(freed) < 10*time.Second {
			msg := postal.Compose(sampler.Rng(), 64)
			h.mu.RLock()
			err := h.primary.DeliverTraced(nil, 0, msg)
			h.mu.RUnlock()
			if err == nil {
				h.acked.Store(string(msg), true)
				recovered = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		rec.OK = shedOK && recovered
		switch {
		case !shedOK:
			rec.Detail = fmt.Sprintf("store did not shed while full (probe err %v, status %+v)", perr, st)
		case !recovered:
			rec.Detail = "no delivery committed within 10s of freeing space"
		default:
			rec.Detail = fmt.Sprintf("shed while full (452-class), held %v, recovered %v after free",
				hold.Round(time.Millisecond), time.Since(freed).Round(time.Millisecond))
		}
	}
	rec.DurSec = time.Since(start).Seconds()
	h.drillMu.Lock()
	h.drills = append(h.drills, rec)
	h.drillMu.Unlock()
}

// awaitResync drives probe deliveries through the replicated path
// until the pair reports in sync (same epoch, no resync in flight,
// peer reachable, not degraded) — the first probe after a heal trips
// any pending catch-up resync. Probes are composed (hash-headed) and
// tracked like any other delivery, so the audit covers them too.
func (h *loadHarness) awaitResync() (time.Duration, error) {
	sampler := postal.NewSampler(postal.Workload{Users: h.cfg.users}, h.cfg.seed+7, 1<<20)
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for {
		msg := postal.Compose(sampler.Rng(), 64)
		h.mu.RLock()
		if err := h.primary.DeliverTraced(nil, 0, msg); err == nil {
			h.acked.Store(string(msg), true)
		}
		pst, bst := h.primary.ReplNode().Status(), h.backup.ReplNode().Status()
		hl := h.primary.ReplHealth()
		h.mu.RUnlock()
		if pst.Epoch == bst.Epoch && !pst.Resyncing && !bst.Resyncing && hl.PeerReachable && !hl.Degraded {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return time.Since(start), fmt.Errorf("pair never resynced: primary %+v backup %+v", pst, bst)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// audit sweeps every mailbox on the primary and checks the
// durability contract: every acked, never-deleted message present;
// no acked delete resurrected; every served message hash-verified.
func (h *loadHarness) audit() (loadAudit, error) {
	a := loadAudit{LossChecked: !h.cfg.noFsync}

	present := sync.Map{}
	var bad, presentN atomic.Int64
	var wg sync.WaitGroup
	var sweepErr atomic.Value
	var nextUser atomic.Uint64
	for w := 0; w < h.cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := nextUser.Add(1) - 1
				if u >= h.cfg.users {
					return
				}
				msgs, err := h.primary.Pickup(u)
				if err != nil {
					sweepErr.Store(err)
					return
				}
				for _, m := range msgs {
					presentN.Add(1)
					present.Store(m.Contents, true)
					if !postal.Verify(m.Contents) {
						bad.Add(1)
					}
				}
				h.primary.Unlock(u)
			}
		}()
	}
	wg.Wait()
	if err, _ := sweepErr.Load().(error); err != nil {
		return a, fmt.Errorf("audit sweep: %w", err)
	}

	h.acked.Range(func(k, _ any) bool {
		a.Acked++
		body := k.(string)
		_, wasDeleted := h.deleted.Load(body)
		_, isPresent := present.Load(body)
		if wasDeleted {
			a.Deleted++
			if isPresent {
				a.Resurrected++
			}
		} else if !isPresent {
			a.Lost++
		}
		return true
	})
	a.Present = int(presentN.Load())
	a.BadHashes = int(bad.Load())
	a.ZeroAckedLoss = a.Lost == 0

	if a.BadHashes > 0 {
		return a, fmt.Errorf("%d messages served with bad hashes (torn or corrupt bytes)", a.BadHashes)
	}
	if a.Resurrected > 0 {
		return a, fmt.Errorf("%d acknowledged deletes resurrected", a.Resurrected)
	}
	if a.LossChecked && a.Lost > 0 {
		return a, fmt.Errorf("%d acknowledged deliveries lost", a.Lost)
	}
	return a, nil
}

// dirsEqual compares two directories file for file.
func dirsEqual(a, b string) (bool, error) {
	ea, err := os.ReadDir(a)
	if err != nil {
		return false, err
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		return false, err
	}
	if len(ea) != len(eb) {
		return false, nil
	}
	for _, e := range ea {
		ca, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			return false, err
		}
		cb, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				return false, nil
			}
			return false, err
		}
		if string(ca) != string(cb) {
			return false, nil
		}
	}
	return true, nil
}

// storesIdentical closes both nodes and compares every user
// directory byte for byte (replicated deployment only).
func (h *loadHarness) storesIdentical() (bool, error) {
	h.primary.Close()
	h.backup.Close()
	h.primary, h.backup = nil, nil
	for u := uint64(0); u < h.cfg.users; u++ {
		same, err := dirsEqual(filepath.Join(h.proot, mailboat.UserDir(u)), filepath.Join(h.broot, mailboat.UserDir(u)))
		if err != nil {
			return false, err
		}
		if !same {
			return false, nil
		}
	}
	return true, nil
}

// runLoad is the whole drill run: boot the deployment, start the
// seeded drill scheduler, drive the open-loop workload through it,
// then audit. cfg.duration is already resolved (main applies
// autoDuration), so the outcome and the replay line name the same run.
func runLoad(cfg loadConfig) (*loadOutcome, error) {
	if !(postal.Workload{Users: cfg.users, Skew: cfg.skew, ZipfS: cfg.zipfS, Mix: cfg.mix}).Valid() {
		return nil, fmt.Errorf("invalid workload: skew %q (want %s or %s), zipf-s %g (want > 1), mix %g (want 0..1)",
			cfg.skew, postal.SkewUniform, postal.SkewZipf, cfg.zipfS, cfg.mix)
	}
	deployment, err := deploymentFor(cfg.drills)
	if err != nil {
		return nil, err
	}
	if cfg.workers == 0 {
		cfg.workers = runtime.NumCPU()
		if cfg.workers > 8 {
			cfg.workers = 8
		}
	}
	h, err := newLoadHarness(cfg, deployment)
	if err != nil {
		return nil, err
	}
	defer h.close()

	windows, times := drillSchedule(cfg.drills, cfg.duration)
	dwell := time.Duration(0)
	if len(times) > 0 {
		dwell = cfg.duration / time.Duration(len(times)+1) / 2
	}

	reg := obs.NewRegistry()
	tracer := trace.New(0, 0)
	tracer.Stages = trace.NewStageMetrics(reg)

	stop := make(chan struct{})
	var schedWG sync.WaitGroup
	start := time.Now()
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		for i, at := range times {
			select {
			case <-time.After(time.Until(start.Add(at))):
				h.execDrill(cfg.drills[i], at, dwell)
			case <-stop:
				return
			}
		}
	}()

	res := postal.OpenLoop(h, postal.OpenLoopOptions{
		Workers:  cfg.workers,
		Users:    cfg.users,
		Skew:     cfg.skew,
		ZipfS:    cfg.zipfS,
		Mix:      cfg.mix,
		Rate:     cfg.rate,
		Duration: cfg.duration,
		Seed:     cfg.seed,
		Tracer:   tracer,
		Windows:  windows,
	})
	close(stop)
	schedWG.Wait()

	out := &loadOutcome{Deployment: deployment, Res: res, Drills: h.drills}

	// Any durability or drill failure below is deterministic in the
	// flags; stamp the failure with the exact command that replays it.
	fail := func(err error) error {
		return fmt.Errorf("%w\n  seed %d; replay: %s", err, cfg.seed, replayCommand(cfg))
	}

	// SLO verdict: with drills, the gated steady phases decide; a bare
	// -load run gates the whole run like the trace profile does.
	out.Gates, out.SLOPass = postal.EvaluateGates(postal.DefaultGates(), res)
	if len(windows) > 0 {
		out.PhaseGates, out.SLOPass = postal.EvaluatePhaseGates(postal.DefaultGates(), res.Phases)
	}

	if deployment == "replicated" {
		resync, err := h.awaitResync()
		s := resync.Seconds()
		out.Audit.ResyncSec = &s
		if err != nil {
			return out, fail(err)
		}
	}
	if deployment == "mirror+checksum" {
		// The integrity claim is about what survives: a last heal-scrub
		// must leave no damage, and the audit below reads the store
		// after a reboot, through recovery's resilver and scrub.
		rep, _ := h.primary.Scrub(true)
		out.Audit.FinalScrub = rep.String()
		if !rep.Clean() {
			return out, fail(fmt.Errorf("final scrub left damage: %s", rep))
		}
		if err := h.restart(nil); err != nil {
			return out, fail(err)
		}
	}
	audit, auditErr := h.audit()
	audit.ResyncSec, audit.FinalScrub = out.Audit.ResyncSec, out.Audit.FinalScrub
	out.Audit = audit
	if auditErr != nil {
		return out, fail(auditErr)
	}
	for _, d := range out.Drills {
		if !d.OK {
			return out, fail(fmt.Errorf("drill %s at %.1fs failed: %s", d.Name, d.AtSec, d.Detail))
		}
	}
	if deployment == "replicated" {
		same, err := h.storesIdentical()
		if err != nil {
			return out, fail(err)
		}
		out.Audit.StoresIdentical = &same
		if !same {
			return out, fail(fmt.Errorf("stores diverged after resync"))
		}
	}
	return out, nil
}

// printLoad renders a load run for humans: workload, drills, phase
// table, SLO verdicts, audit.
func printLoad(w io.Writer, cfg loadConfig, out *loadOutcome) {
	fmt.Fprintf(w, "load harness: %s deployment, %d mailboxes, %s skew, %.0f%% deliver mix, offered %.0f req/s for %v (seed %d)\n",
		out.Deployment, cfg.users, cfg.skew, cfg.mix*100, cfg.rate, cfg.duration, cfg.seed)
	fmt.Fprintf(w, "  achieved %.0f req/s (%d reqs, %d errors); deliver p50/p99 %s/%s, pickup p50/p99 %s/%s\n",
		out.Res.Throughput, out.Res.Requests, out.Res.Errors,
		fmtSeconds(out.Res.Deliver.P50), fmtSeconds(out.Res.Deliver.P99),
		fmtSeconds(out.Res.Pickup.P50), fmtSeconds(out.Res.Pickup.P99))
	for _, d := range out.Drills {
		verdict := "ok"
		if !d.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  drill %-9s at %5.1fs (%6.3fs): %s — %s\n", d.Name, d.AtSec, d.DurSec, d.Detail, verdict)
	}
	if len(out.Res.Phases) > 0 {
		fmt.Fprintf(w, "  per-phase latency (attributed by scheduled start; drill phases not gated):\n")
		fmt.Fprintf(w, "    %-12s %6s %8s %6s  %10s %10s  %10s %10s\n",
			"phase", "gated", "reqs", "errs", "dlv p50", "dlv p99", "pkp p50", "pkp p99")
		for _, p := range out.Res.Phases {
			fmt.Fprintf(w, "    %-12s %6v %8d %6d  %10s %10s  %10s %10s\n",
				p.Name, p.Gated, p.Requests, p.Errors,
				fmtSeconds(p.Deliver.P50), fmtSeconds(p.Deliver.P99),
				fmtSeconds(p.Pickup.P50), fmtSeconds(p.Pickup.P99))
		}
	}
	if len(out.PhaseGates) > 0 {
		for _, g := range out.PhaseGates {
			fmt.Fprintf(w, "  SLO %s\n", g)
		}
	} else {
		for _, g := range out.Gates {
			fmt.Fprintf(w, "  SLO %s\n", g)
		}
	}
	if out.SLOPass {
		fmt.Fprintln(w, "  SLO verdict: PASS")
	} else {
		fmt.Fprintln(w, "  SLO verdict: FAIL")
	}
	a := out.Audit
	fmt.Fprintf(w, "  audit: %d acked, %d deleted, %d present, %d lost, %d resurrected, %d bad hashes",
		a.Acked, a.Deleted, a.Present, a.Lost, a.Resurrected, a.BadHashes)
	if a.ResyncSec != nil {
		fmt.Fprintf(w, ", resync %.3fs", *a.ResyncSec)
	}
	if a.StoresIdentical != nil {
		fmt.Fprintf(w, ", stores identical=%v", *a.StoresIdentical)
	}
	if a.FinalScrub != "" {
		fmt.Fprintf(w, ", final scrub %s, swept after a reboot", a.FinalScrub)
	}
	fmt.Fprintln(w)
	switch {
	case !a.LossChecked:
		fmt.Fprintln(w, "  audit: -no-fsync — zero-loss reported, not enforced (prefix contract: mb/writeback+prefix-contract)")
	case a.ZeroAckedLoss:
		fmt.Fprintln(w, "  audit: zero acked-mail loss")
	}
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// autoDuration picks the run length for -duration 0: crash recovery
// and resync sweep the whole population, so the drill windows (half
// the inter-drill gap) must be long enough to contain an O(users)
// stall — otherwise the backlog drains into the following gated
// steady window and fails its SLO for a sizing reason, not a latency
// one.
func autoDuration(users uint64) time.Duration {
	switch {
	case users <= 20_000:
		return 8 * time.Second
	case users <= 200_000:
		return 24 * time.Second
	default:
		return 60 * time.Second
	}
}

// isInsufficientStorage reports whether err is a storage-capacity
// refusal, via the same structural marker the SMTP front end keys
// its 452 on (mailboatd.ErrNoSpace / ErrOverloaded carry it).
func isInsufficientStorage(err error) bool {
	is, ok := err.(interface{ InsufficientStorage() bool })
	return ok && is.InsufficientStorage()
}

// replayCommand renders the verbatim command line that reproduces
// this run: the workload, the drill schedule, and every fault seed
// are pure functions of these flags, so a failure message carrying
// this line is a complete bug report.
func replayCommand(cfg loadConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mailbench -load -seed %d -users %d -rate %g -duration %s -skew %s -mix %g",
		cfg.seed, cfg.users, cfg.rate, cfg.duration, cfg.skew, cfg.mix)
	if cfg.skew == postal.SkewZipf {
		fmt.Fprintf(&b, " -zipf-s %g", cfg.zipfS)
	}
	if len(cfg.drills) > 0 {
		fmt.Fprintf(&b, " -drill %s", strings.Join(cfg.drills, ","))
	}
	if cfg.noFsync {
		b.WriteString(" -no-fsync")
	}
	if cfg.base != "" {
		fmt.Fprintf(&b, " -dir %s", cfg.base)
	}
	return b.String()
}

// parseDrills splits and normalizes the -drill flag.
func parseDrills(s string) []string {
	var out []string
	for _, d := range strings.Split(s, ",") {
		if d = strings.TrimSpace(d); d != "" {
			out = append(out, d)
		}
	}
	return out
}
