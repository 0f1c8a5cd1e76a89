// Package mailboatd wires the verified Mailboat library (running on the
// real file system) to the unverified SMTP and POP3 front ends — the
// deployment glue of §8.2's "Using Mailboat". It is what cmd/mailboat
// and the network end-to-end tests run.
//
// The adapter exposes the library's transient-failure reporting as
// ErrTransient, which the front ends translate into SMTP 451 / POP3
// "-ERR [SYS/TEMP]". For fault drills, Options.Fault interposes
// gfs.Faulty between the library and the real file system with a
// seeded, replayable schedule.
package mailboatd

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/gfs"
	"repro/internal/mailboat"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/trace"
)

// ErrTransient reports a transient store failure: the operation did not
// take effect (the delivery was not acknowledged, the delete did not
// remove the message) and may be retried. Front ends must surface it to
// the client as a temporary error, never drop the connection over it.
var ErrTransient = errors.New("mailboatd: transient store failure, try again later")

// FaultOptions configures a deterministic fault-injection layer between
// the library and the OS file system — the seeded drill mode of the
// fault model (see DESIGN.md "Fault vocabulary").
type FaultOptions struct {
	// Seed selects the fault schedule; the same seed replays the same
	// schedule bit-for-bit (inspect it with Adapter.FaultLog).
	Seed int64
	// Rates[c] = N injects a fault into roughly 1 in N calls of that
	// class; 0 disables the class. gfs.UniformRates(N) fails them all.
	Rates [fault.NumClasses]uint64
	// MaxFaults, when nonzero, caps the total number of injected faults.
	MaxFaults uint64
}

// Options configures an Adapter beyond the basic New parameters.
type Options struct {
	// Users is the mailbox count (required, ≥ 1).
	Users uint64
	// Seed seeds spool-name allocation.
	Seed int64
	// DeliverRetries and DeliverBackoff tune Deliver's retry loop
	// (zero values use the library defaults).
	DeliverRetries int
	DeliverBackoff time.Duration
	// SyncOnDeliver fsyncs spool files before publishing them.
	SyncOnDeliver bool
	// SyncDirs fsyncs the affected mailbox directory before
	// acknowledging a delivery or a delete — the directory half of the
	// checked sync discipline. On a writeback file system (any modern
	// ext4/xfs deployment) an acked operation is only crash-durable
	// with BOTH barriers: SyncOnDeliver makes the message bytes
	// durable, SyncDirs makes the directory entry durable. Running with
	// both off is the honest -no-fsync fast mode, whose weaker checked
	// contract is prefix durability: a crash may take back the newest
	// acked deliveries, but never reorders, fabricates, or punches
	// holes (see the mb/writeback+prefix-contract scenario).
	SyncDirs bool
	// Fault, when non-nil, wraps the file system in gfs.Faulty with a
	// seeded policy.
	Fault *FaultOptions
	// MirrorRoot, when non-empty, runs the store mirrored: replica 0
	// lives under the New root, replica 1 under MirrorRoot, every write
	// goes to both, and reads fail over if a replica is fail-stopped
	// (FailStopReplica, or a real dead disk). Boot-time recovery
	// resilvers a replaced replica from the survivor before serving.
	// Does not compose with Fault (gfs.StackSpec.Validate has the rule
	// and the reason; DESIGN.md "Storage stack" prints the table).
	MirrorRoot string
	// Metrics, when non-nil, registers the full store-side metric
	// surface there: gfs_* file-system counters and latency histograms
	// (measured outermost, so drills count the latency the library
	// experiences including injected faults and retries), mailboat_*
	// library metrics, gfs_integrity_* envelope counters (with
	// Checksum), and mailboatd_ops_total adapter outcomes.
	Metrics *obs.Registry
	// Checksum stores every file inside a self-describing checksum
	// envelope (gfs.Checksummed): reads verify and fail loudly on rot,
	// boot-time recovery scrubs the store, and on a mirrored store each
	// replica gets its own envelope so rotten reads heal from the peer.
	// With Checksum set, recovery runs through the FULL stack (the boot
	// scrub needs the envelope layer), so a Fault drill covers the
	// recovery path too.
	Checksum bool
	// ScrubEvery, when positive, runs a background scrub pass (healing
	// on a mirrored store) at this interval until Close.
	ScrubEvery time.Duration
	// Replica, when non-nil, runs this node as half of a primary/backup
	// replicated pair over the TCP replication transport: the primary
	// acknowledges a Deliver or Delete only after the backup has
	// durably applied it (see ReplicaOptions). The node runs on the
	// stack the checker's repl nodes run on, a quiet fault layer over
	// the backend (under Observed with Metrics), whose latch is
	// FailStopReplica(0). Refuses MirrorRoot, Fault and Checksum: no repl
	// scenario checks a mirror, transient storage faults or an envelope.
	Replica *ReplicaOptions
	// QuotaBytes caps each mailbox's stored bytes (0 = unlimited). A
	// delivery that would push the recipient over quota is refused up
	// front as a transient failure with the store untouched; deleting
	// mail credits the bytes back. Usage is re-derived from the store
	// at every recovery, so the bound survives crashes. Refused with
	// Replica, whose delivery path keeps no quota.
	QuotaBytes uint64
	// MaxInFlight caps concurrently admitted deliveries; excess
	// deliveries are refused immediately with ErrOverloaded (surfaced
	// as SMTP 452) instead of queueing into the store. 0 = unlimited.
	MaxInFlight int
	// ShedLowWater and ShedHighWater are free-byte watermarks on the
	// file system backing the store (read via statfs, cached): when
	// free space drops below ShedLowWater the adapter sheds deliveries
	// with ErrNoSpace, and resumes only once free space rises above
	// ShedHighWater (hysteresis; defaults to 2x low when unset). 0
	// disables the watermark policy. Reads are never shed.
	ShedLowWater  uint64
	ShedHighWater uint64
	// Tracer, when non-nil, records request-scoped span trees: the
	// front ends open a root span per verb and hand it to the adapter's
	// *Traced entry points, which run the library on a per-request
	// thread handle carrying the span (the shared Adapter itself stays
	// span-free, since it serves many requests at once). Boot-time
	// recovery is traced too, under op "recover".
	Tracer *trace.Tracer
}

// opMetrics counts adapter-level operation outcomes — the boundary
// where library booleans become ErrTransient. All fields may be nil
// (metrics disabled); obs counters ignore writes through nil.
type opMetrics struct {
	deliverOK, deliverTransient *obs.Counter
	pickupOK                    *obs.Counter
	deleteOK, deleteTransient   *obs.Counter
	unlockOK                    *obs.Counter
}

func newOpMetrics(r *obs.Registry) opMetrics {
	c := func(op, outcome string) *obs.Counter {
		return r.Counter("mailboatd_ops_total",
			"Adapter operations by outcome (transient = reported to the client as retryable).",
			"op", op, "outcome", outcome)
	}
	return opMetrics{
		deliverOK:        c("deliver", "ok"),
		deliverTransient: c("deliver", "transient"),
		pickupOK:         c("pickup", "ok"),
		deleteOK:         c("delete", "ok"),
		deleteTransient:  c("delete", "transient"),
		unlockOK:         c("unlock", "ok"),
	}
}

// Adapter exposes the Mailboat library as the smtp.Deliverer and
// pop3.Maildrop interfaces. It is safe for concurrent use by many
// connection handlers; it implements gfs.T itself with a lock-free
// seeded PRNG for name allocation (an atomic counter fed through
// SplitMix64, so concurrent connections never contend on a shared
// rand.Rand lock while staying deterministic for sequential callers).
type Adapter struct {
	// fs are the OS backends (two when Options.MirrorRoot was set) and
	// stack the layers gfs.NewStack composed over them — the same
	// constructor the checker's scenarios run on (DESIGN.md "Storage
	// stack"). The library runs on stack.Top.
	fs    []*gfs.OS
	stack *gfs.Stack
	mb    *mailboat.Mailboat
	cfg   mailboat.Config
	ops   opMetrics

	// Replication state (nil unless Options.Replica was set): node is
	// the protocol engine over this store, replClient the TCP client
	// leg (primary role), replSrv the frame server (backup role, or a
	// listening primary); replWG waits for the frame server and the
	// primary's supervisor.
	node       *repl.Node
	replClient *repl.TCPClient
	replSrv    *repl.Server
	replWG     sync.WaitGroup

	tracer *trace.Tracer

	// shed is the delivery admission controller (overload and
	// disk-full shedding); always non-nil after construction so the
	// ForceNoSpace drill surface exists on every deployment.
	shed *shedder

	scrubMu   sync.Mutex // serializes scrub passes
	lastMu    sync.Mutex
	lastScrub gfs.ScrubReport
	lastAt    time.Time
	scrubbed  bool
	scrubStop chan struct{}
	scrubWG   sync.WaitGroup

	rng atomic.Uint64
}

// New opens (or creates) a mail store under root with the given number
// of users — the original, knob-free constructor.
func New(root string, users uint64, seed int64) (*Adapter, error) {
	return NewWithOptions(root, Options{Users: users, Seed: seed})
}

// stack maps the options onto the storage stack — how many backends,
// which gfs.StackSpec over them — and refuses what does not compose.
// The layer rules are gfs.StackSpec.Validate's; the rules of its own
// are Replica's.
func (o Options) stack() (replicas int, spec gfs.StackSpec, err error) {
	replicas = 1
	spec = gfs.StackSpec{Checksum: o.Checksum, Metrics: o.Metrics}
	if o.MirrorRoot != "" {
		replicas = 2
	}
	if replicas == 2 || o.Replica != nil {
		// A quiet fault layer per store: its latch is the FailStopReplica
		// kill switch, which a replicated node reads as its store's death.
		spec.Policy = fault.Never{}
	}
	if o.Fault != nil {
		spec.Policy = &gfs.SeededPolicy{Seed: o.Fault.Seed, Rates: o.Fault.Rates, MaxFaults: o.Fault.MaxFaults}
	}
	if r := o.Replica; r != nil {
		switch {
		case replicas != 1 || o.Fault != nil || spec.Checksum:
			return 0, spec, errors.New("mailboatd: Replica refuses MirrorRoot, Fault and Checksum: a replicated node runs the checked repl node's stack, a quiet fault layer over the backend, and no repl scenario checks a mirror, transient storage faults or an envelope")
		case o.QuotaBytes != 0:
			return 0, spec, errors.New("mailboatd: Replica and QuotaBytes are mutually exclusive: a replicated node delivers through mailboat.DeliverAs, which reserves and commits no quota, so the bound would be accepted and never enforced")
		case !r.Primary && r.ListenAddr == "":
			return 0, spec, errors.New("mailboatd: a backup replica needs a ListenAddr to receive frames on")
		case r.Primary && r.PeerAddr == "":
			return 0, spec, errors.New("mailboatd: a primary replica needs the backup's PeerAddr")
		}
	}
	return replicas, spec, spec.Validate(replicas, false)
}

// Validate reports whether NewWithOptions would accept the options,
// without touching the file system.
func (o Options) Validate() error {
	_, _, err := o.stack()
	return err
}

// NewWithOptions opens (or creates) a mail store under root, running
// recovery first — on boot we cannot know whether the previous process
// exited cleanly, so Recover's spool cleanup always runs, exactly as
// §8.1 prescribes ("run Recover to restore the system following a
// shutdown or crash"). Recovery runs through the full stack, whatever
// it is: a fault drill's seeded schedule starts at boot (a spool
// orphan whose delete it fails waits for the next boot), the files of
// a Checksum store are envelopes, and Recover's resilver hook needs to
// see the mirror to repair a replaced replica before the first byte of
// traffic. The one integrity sweep, each file read once per replica,
// is also the LastScrub baseline (see bootRecover).
func NewWithOptions(root string, o Options) (*Adapter, error) {
	replicas, spec, err := o.stack()
	if err != nil {
		return nil, err
	}
	cfg := mailboat.Config{
		Users:          o.Users,
		RandBound:      1 << 62,
		SyncOnDeliver:  o.SyncOnDeliver,
		SyncDirs:       o.SyncDirs,
		DeliverRetries: o.DeliverRetries,
		DeliverBackoff: o.DeliverBackoff,
		QuotaBytes:     o.QuotaBytes,
	}
	dirs := mailboat.Dirs(cfg)
	osDirs := gfs.BackendDirs(dirs, replicas)
	if o.Replica != nil {
		// The replicated store carries the .repl epoch meta-directory
		// beside the mailboxes it fences.
		osDirs = repl.ReplDirs(cfg)
	}
	a := &Adapter{tracer: o.Tracer}
	backends := make([]gfs.System, replicas)
	for i, r := range []string{root, o.MirrorRoot}[:replicas] {
		fs, err := gfs.NewOS(r, osDirs)
		if err != nil {
			a.Close()
			return nil, err
		}
		a.fs, backends[i] = append(a.fs, fs), fs
	}
	a.stack = gfs.NewStack(backends, dirs, spec)
	if o.Metrics != nil {
		cfg.Metrics = mailboat.NewMetrics(o.Metrics)
		a.ops = newOpMetrics(o.Metrics)
	}
	a.cfg = cfg
	a.rng.Store(uint64(o.Seed))
	a.bootRecover(a.stack.Top, cfg)
	if o.Replica != nil {
		if err := a.startReplica(o); err != nil {
			a.Close()
			return nil, err
		}
	}
	if o.ScrubEvery > 0 {
		a.startScrubber(o.ScrubEvery)
	}
	a.initShed(o)
	return a, nil
}

// drill returns the seeded fault layer of an Options.Fault drill; nil
// otherwise — the quiet kill-switch layers of a mirror or a replica are
// not a drill.
func (a *Adapter) drill() *gfs.Faulty {
	if a.stack.Mirror() != nil || a.node != nil {
		return nil
	}
	return a.stack.Faulty(0)
}

// Close stops the background scrubber (waiting out any in-flight
// pass), tears down the replication machinery, and releases the cached
// directory handles.
func (a *Adapter) Close() {
	if a.scrubStop != nil {
		close(a.scrubStop)
		a.scrubWG.Wait()
		a.scrubStop = nil
	}
	a.stopReplica()
	for _, fs := range a.fs {
		fs.CloseAll()
	}
}

// Scrub runs one integrity pass over the store through whatever
// integrity layers the stack has: a mirrored store verifies both
// replicas and (when heal is set) rewrites rotten copies from the good
// peer; a single-backend envelope detects only. ok is false when the
// stack has no integrity layer to scrub with (no Checksum, no mirror).
// Passes are serialized; concurrent mail traffic keeps flowing (a file
// mid-append reads as unsealed, which a scrub never touches).
func (a *Adapter) Scrub(heal bool) (gfs.ScrubReport, bool) {
	sc := gfs.AsScrubber(a.stack.Top)
	if sc == nil {
		return gfs.ScrubReport{}, false
	}
	a.scrubMu.Lock()
	defer a.scrubMu.Unlock()
	start := time.Now()
	rep := sc.Scrub(a, heal)
	a.recordScrub(rep, start)
	return rep, true
}

// recordScrub publishes one finished integrity pass: its duration into
// gfs_integrity_scrub_seconds, its report as LastScrub.
func (a *Adapter) recordScrub(rep gfs.ScrubReport, start time.Time) {
	if c := a.stack.Checksummed(0); c != nil {
		c.Metrics.ScrubSeconds.ObserveSince(start)
	}
	a.lastMu.Lock()
	a.lastScrub, a.lastAt, a.scrubbed = rep, time.Now(), true
	a.lastMu.Unlock()
}

// LastScrub returns the most recent scrub pass's report and finish
// time; ok is false when no pass has run yet.
func (a *Adapter) LastScrub() (rep gfs.ScrubReport, at time.Time, ok bool) {
	a.lastMu.Lock()
	defer a.lastMu.Unlock()
	return a.lastScrub, a.lastAt, a.scrubbed
}

// IntegrityDetected sums the envelope layers' detection counters —
// how many rotten reads the store has refused to serve since boot.
func (a *Adapter) IntegrityDetected() uint64 { return a.stack.Detected() }

// startScrubber runs Scrub(heal) at the given interval until Close.
func (a *Adapter) startScrubber(every time.Duration) {
	a.scrubStop = make(chan struct{})
	a.scrubWG.Add(1)
	go func() {
		defer a.scrubWG.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-a.scrubStop:
				return
			case <-tick.C:
				a.Scrub(true)
			}
		}
	}()
}

// CorruptReplica flips one byte of a stored mailbox file on replica i
// (use 0 on a single-backend store) — the silent-corruption drill, the
// live analog of the checker's fault.Corrupt class. It mangles the
// raw bytes on disk UNDERNEATH every integrity layer, exactly as shelf
// rot would. Returns the "dir/name" it mangled, or "" when the replica
// holds no mailbox files (or the store cannot corrupt in place).
func (a *Adapter) CorruptReplica(i int) string {
	backend := a.fs[0]
	if i == 1 && len(a.fs) == 2 {
		backend = a.fs[1]
	}
	c := gfs.AsCorrupter(backend)
	if c == nil {
		return ""
	}
	for u := uint64(0); u < a.cfg.Users; u++ {
		dir := mailboat.UserDir(u)
		for _, name := range backend.List(a, dir) {
			if c.CorruptFile(a, dir, name, gfs.CorruptFlip) {
				return dir + "/" + name
			}
		}
	}
	return ""
}

// Users returns the mailbox count.
func (a *Adapter) Users() uint64 { return a.cfg.Users }

// FaultLog returns the injected-fault log when a fault layer is
// configured (nil otherwise) — the replayable record of a drill.
func (a *Adapter) FaultLog() []fault.Event {
	if f := a.drill(); f != nil {
		return f.Log()
	}
	return nil
}

// Mirror returns the mirrored middleware when Options.MirrorRoot was
// set, nil otherwise.
func (a *Adapter) Mirror() *gfs.Mirrored { return a.stack.Mirror() }

// MirrorStatus reports the mirror's replica health (nil when the store
// is not mirrored) — what /healthz serves while degraded.
func (a *Adapter) MirrorStatus() *gfs.MirrorStatus {
	m := a.stack.Mirror()
	if m == nil {
		return nil
	}
	st := m.Status()
	return &st
}

// FailStopReplica permanently kills replica i (0 or 1; a replicated
// node's store is 0) — the operator kill switch for fail-stop drills.
// All its subsequent operations fail; the mirror notices on the next
// touch, fails reads over, and runs degraded until the next boot
// resilvers a replacement; a replicated node reports itself degraded.
// No-op on a plain store, a drill, or with i out of range.
func (a *Adapter) FailStopReplica(i int) {
	if a.drill() != nil || i < 0 || i > 1 || a.stack.Faulty(i) == nil {
		return
	}
	a.stack.Faulty(i).FailStopNow("operator kill switch")
}

// RandUint64 implements gfs.T: a lock-free SplitMix64 stream over an
// atomic counter. Each call advances the counter by the golden-ratio
// increment and mixes it, so concurrent callers draw distinct values
// without serializing on a mutex.
func (a *Adapter) RandUint64(bound uint64) uint64 {
	if bound == 0 {
		panic("mailboatd: RandUint64 with zero bound")
	}
	x := a.rng.Add(0x9E3779B97F4A7C15)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return (x ^ (x >> 31)) % bound
}

// reqT is the per-request thread handle for traced requests: it draws
// randomness from the shared adapter but carries the request's active
// span (trace.Carrier). The Adapter itself cannot carry spans — it is
// one value shared by every connection handler.
type reqT struct {
	a    *Adapter
	span *trace.Span
}

// RandUint64 implements gfs.T.
func (r *reqT) RandUint64(bound uint64) uint64 { return r.a.RandUint64(bound) }

// TraceSpan implements trace.Carrier.
func (r *reqT) TraceSpan() *trace.Span { return r.span }

// SetTraceSpan implements trace.Carrier.
func (r *reqT) SetTraceSpan(s *trace.Span) { r.span = s }

// thread returns the thread handle for a request: the shared adapter
// when untraced, a per-request carrier when a root span is present.
func (a *Adapter) thread(sp *trace.Span) gfs.T {
	if sp == nil {
		return a
	}
	return &reqT{a: a, span: sp}
}

// bootRecover runs crash recovery; with a tracer configured the boot is
// recorded as a trace under op "recover" (resilver, scrub, and spool
// sweep each show as stage spans). On an envelope store, recovery's
// integrity sweep already judged every stored file, so what it found
// becomes the LastScrub baseline — /healthz reflects the store's
// integrity from the first request on — and the sweep is never
// repeated; its scrub-seconds sample spans the recovery it is all but
// the spool sweep of.
func (a *Adapter) bootRecover(sys gfs.System, cfg mailboat.Config) {
	start := time.Now()
	root := a.tracer.Start("recover", "mailboatd.boot")
	a.mb = mailboat.Recover(a.thread(root), nil, sys, cfg, nil)
	root.End()
	if rep, ok := a.mb.BootScrub(); ok && a.stack.Checksummed(0) != nil {
		a.recordScrub(rep, start)
	}
}

// Tracer returns the adapter's tracer (nil when tracing is off).
func (a *Adapter) Tracer() *trace.Tracer { return a.tracer }

// Deliver implements smtp.Deliverer. ErrTransient means the message was
// NOT accepted (retries exhausted) and the client must retry later.
func (a *Adapter) Deliver(user uint64, msg []byte) error {
	return a.DeliverTraced(nil, user, msg)
}

// DeliverTraced is Deliver under a front-end root span (nil = untraced;
// it implements smtp.TracedDeliverer). Admission control runs first:
// a delivery shed for overload or space returns ErrOverloaded or
// ErrNoSpace (both carrying the InsufficientStorage marker the front
// ends turn into SMTP 452) without touching the store.
func (a *Adapter) DeliverTraced(sp *trace.Span, user uint64, msg []byte) error {
	if err := a.shed.admit(); err != nil {
		a.ops.deliverTransient.Inc()
		return err
	}
	defer a.shed.release()
	if a.node != nil {
		return a.deliverReplicated(sp, user, msg)
	}
	if !a.mb.Deliver(a.thread(sp), nil, user, msg) {
		a.ops.deliverTransient.Inc()
		if a.shed.noSpaceNow() {
			// The retry loop died against a full store (the latch can
			// trip mid-delivery, after admission): report it as the
			// storage refusal it is, not a generic transient.
			return ErrNoSpace
		}
		return ErrTransient
	}
	a.ops.deliverOK.Inc()
	return nil
}

// Pickup implements pop3.Maildrop. The returned error is always nil by
// design, not oversight: every store-level hazard on the pickup path
// is absorbed below this layer. Short reads (POSIX short reads, or
// gfs.Faulty's read-short class) are retried from the advanced offset
// by the library's chunk loop — only a zero-length read means
// end-of-file — and a listed name failing to Open could only come from
// a concurrent delete, which the per-user lock held from Pickup to
// Unlock excludes, so the library skips it as already-handled. Listing
// itself has no fault class in the §8.3 fault model. The error in the
// signature exists for pop3.Maildrop implementations over stores that
// CAN transiently fail a pickup (e.g. a remote store); such
// implementations return ErrTransient and the front end answers
// "-ERR [SYS/TEMP]". TestPickupUnderReadFaults drills this contract
// with every read faulted.
func (a *Adapter) Pickup(user uint64) ([]mailboat.Message, error) {
	return a.PickupTraced(nil, user)
}

// PickupTraced is Pickup under a front-end root span (nil = untraced;
// it implements pop3.TracedMaildrop).
func (a *Adapter) PickupTraced(sp *trace.Span, user uint64) ([]mailboat.Message, error) {
	msgs := a.mb.Pickup(a.thread(sp), nil, user)
	a.ops.pickupOK.Inc()
	return msgs, nil
}

// Delete implements pop3.Maildrop. ErrTransient means the message is
// still in the maildrop.
func (a *Adapter) Delete(user uint64, id string) error {
	return a.DeleteTraced(nil, user, id)
}

// DeleteTraced is Delete under a front-end root span (nil = untraced;
// it implements pop3.TracedMaildrop).
func (a *Adapter) DeleteTraced(sp *trace.Span, user uint64, id string) error {
	if a.node != nil {
		return a.deleteReplicated(sp, user, id)
	}
	if !a.mb.Delete(a.thread(sp), nil, user, id) {
		a.ops.deleteTransient.Inc()
		return ErrTransient
	}
	a.ops.deleteOK.Inc()
	return nil
}

// Unlock implements pop3.Maildrop.
func (a *Adapter) Unlock(user uint64) {
	a.mb.Unlock(a, nil, user)
	a.ops.unlockOK.Inc()
}
