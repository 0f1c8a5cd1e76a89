package mailboatd

// Overload shedding: resource exhaustion handled at admission time
// instead of discovery time. The shedder sits in front of Deliver and
// refuses work the store could not complete anyway — because too many
// deliveries are already in flight, or because the backing file system
// is (about to be) out of space. Refusing early keeps the failure
// cheap and honest: the client hears SMTP 452 / POP3 "-ERR [SYS/TEMP]"
// and retries, instead of racing a dozen spool writes into ENOSPC and
// timing out. Reads (Pickup) are never shed: serving the mail already
// stored costs no new space.
//
// The space signal is layered, mirroring the checked model:
//   - the real file system, via statfs on the store's root (gfs.OS),
//     with low/high watermark hysteresis so the decision does not
//     flap around the threshold;
//   - the fault drill's durable disk-full latch (gfs.Faulty with
//     FaultNoSpace), when a drill layer is configured;
//   - the operator/drill override ForceNoSpace, which is what the
//     mailbench disk-full drill flips.
//
// The checked counterpart is the mb/nospace+* scenario family: the
// model checker proves a latched store aborts cleanly (never
// ack-then-lose); the shedder is the deployment policy that keeps the
// store out of that regime in the first place.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// shedError is a refusal the front ends must surface as an
// insufficient-storage temp failure (SMTP 452, POP3 "-ERR
// [SYS/TEMP]"). Front ends detect it structurally — via the
// InsufficientStorage method — so they stay decoupled from this
// package.
type shedError string

func (e shedError) Error() string { return string(e) }

// InsufficientStorage marks the error as a storage-capacity refusal.
func (shedError) InsufficientStorage() bool { return true }

// ErrNoSpace reports a delivery shed because the store is out of space
// (watermark breach, disk-full latch, or forced drill). The message
// was NOT accepted; nothing was written.
var ErrNoSpace error = shedError("mailboatd: store out of space, delivery refused")

// ErrOverloaded reports a delivery shed by admission control: the
// in-flight delivery cap is reached. The message was NOT accepted.
var ErrOverloaded error = shedError("mailboatd: too many deliveries in flight, try again later")

// statfsCacheTTL bounds how often the shedder re-reads statfs: space
// moves slowly relative to request rates, and a syscall per delivery
// would dominate the RAM-backed fast path.
const statfsCacheTTL = 100 * time.Millisecond

// shedMetrics is the shed_* / gfs_space_* metric surface. All fields
// may be nil (metrics disabled); obs ignores writes through nil.
type shedMetrics struct {
	freeBytes  *obs.Gauge
	totalBytes *obs.Gauge
	active     *obs.Gauge
	shedSpace  *obs.Counter
	shedLoad   *obs.Counter
}

func newShedMetrics(r *obs.Registry) shedMetrics {
	return shedMetrics{
		freeBytes:  r.Gauge("gfs_space_free_bytes", "Free bytes on the file system backing the store (statfs, cached)."),
		totalBytes: r.Gauge("gfs_space_total_bytes", "Total bytes on the file system backing the store (statfs, cached)."),
		active:     r.Gauge("shed_active", "1 while the store is shedding deliveries for space, 0 otherwise."),
		shedSpace: r.Counter("shed_deliveries_total",
			"Deliveries refused at admission, by reason.", "reason", "space"),
		shedLoad: r.Counter("shed_deliveries_total",
			"Deliveries refused at admission, by reason.", "reason", "overload"),
	}
}

// shedder is the admission-control state. One per adapter; all methods
// are safe for concurrent use.
type shedder struct {
	// maxInFlight caps concurrent admitted deliveries (0 = unlimited).
	maxInFlight int64
	// low/high are the free-byte watermarks: shedding starts when free
	// drops below low and stops when it rises above high (0 = off).
	low, high uint64
	// statfs reads the backing file system's free/total bytes; nil or
	// a false ok disables the watermark policy (the latch and the
	// forced override still work).
	statfs func() (free, total uint64, ok bool)
	// latched reports the fault layer's durable disk-full latch; nil
	// when no fault layer is configured.
	latched func() bool

	inFlight atomic.Int64
	forced   atomic.Bool
	rejected atomic.Uint64

	mu        sync.Mutex
	shedding  bool
	free      uint64
	total     uint64
	statOK    bool
	checkedAt time.Time

	m shedMetrics
}

// admit gates one delivery. A nil error admits it; the caller must
// pair it with release(). A non-nil error is the refusal to hand to
// the client (ErrOverloaded or ErrNoSpace); nothing was admitted.
func (s *shedder) admit() error {
	if s == nil {
		return nil
	}
	if n := s.inFlight.Add(1); s.maxInFlight > 0 && n > s.maxInFlight {
		s.inFlight.Add(-1)
		s.rejected.Add(1)
		s.m.shedLoad.Inc()
		return ErrOverloaded
	}
	if s.noSpaceNow() {
		s.inFlight.Add(-1)
		s.rejected.Add(1)
		s.m.shedSpace.Inc()
		return ErrNoSpace
	}
	return nil
}

// release retires one admitted delivery.
func (s *shedder) release() {
	if s == nil {
		return
	}
	s.inFlight.Add(-1)
}

// noSpaceNow reports whether the store should refuse writes right now:
// the forced drill override, the fault layer's durable latch, or the
// statfs watermark policy.
func (s *shedder) noSpaceNow() bool {
	if s == nil {
		return false
	}
	if s.forced.Load() {
		s.m.active.Set(1)
		return true
	}
	if s.latched != nil && s.latched() {
		s.m.active.Set(1)
		return true
	}
	return s.watermark()
}

// watermark evaluates (and lazily refreshes) the statfs-keyed policy
// with low/high hysteresis.
func (s *shedder) watermark() bool {
	if s.low == 0 || s.statfs == nil {
		s.m.active.Set(0)
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.checkedAt) >= statfsCacheTTL {
		s.free, s.total, s.statOK = s.statfs()
		s.checkedAt = time.Now()
		if s.statOK {
			s.m.freeBytes.Set(int64(s.free))
			s.m.totalBytes.Set(int64(s.total))
		}
	}
	if !s.statOK {
		s.m.active.Set(0)
		return false
	}
	// Hysteresis: cross low to start shedding, high to stop, so free
	// space hovering at one threshold cannot flap the decision.
	if s.shedding {
		if s.free >= s.high {
			s.shedding = false
		}
	} else if s.free < s.low {
		s.shedding = true
	}
	if s.shedding {
		s.m.active.Set(1)
	} else {
		s.m.active.Set(0)
	}
	return s.shedding
}

// ShedStatus is the admission-control snapshot /healthz and the drill
// tooling read. Shedding=true means deliveries are being refused for
// space right now (the in-flight cap is per-request, not a state).
type ShedStatus struct {
	Shedding    bool   `json:"shedding"`
	Reason      string `json:"reason,omitempty"`
	InFlight    int64  `json:"in_flight"`
	MaxInFlight int64  `json:"max_in_flight,omitempty"`
	FreeBytes   uint64 `json:"free_bytes,omitempty"`
	TotalBytes  uint64 `json:"total_bytes,omitempty"`
	LowWater    uint64 `json:"low_water_bytes,omitempty"`
	HighWater   uint64 `json:"high_water_bytes,omitempty"`
	Rejected    uint64 `json:"rejected_total"`
}

// initShed builds the adapter's shedder from its options. Called from
// every constructor path, so the ForceNoSpace drill surface exists
// even with no shed policy configured.
func (a *Adapter) initShed(o Options) {
	s := &shedder{
		maxInFlight: int64(o.MaxInFlight),
		low:         o.ShedLowWater,
		high:        o.ShedHighWater,
	}
	if s.high < s.low {
		// A high watermark at or below low would shed forever once
		// tripped; default to 2x low for sane hysteresis.
		s.high = 2 * s.low
	}
	s.statfs = a.fs[0].StatFS
	if f := a.drill(); f != nil {
		s.latched = f.NoSpace
	}
	if o.Metrics != nil {
		s.m = newShedMetrics(o.Metrics)
	}
	a.shed = s
}

// ShedStatus reports the admission-control snapshot.
func (a *Adapter) ShedStatus() *ShedStatus {
	s := a.shed
	if s == nil {
		return nil
	}
	st := &ShedStatus{
		InFlight:    s.inFlight.Load(),
		MaxInFlight: s.maxInFlight,
		LowWater:    s.low,
		HighWater:   s.high,
		Rejected:    s.rejected.Load(),
	}
	switch {
	case s.forced.Load():
		st.Shedding, st.Reason = true, "forced"
	case s.latched != nil && s.latched():
		st.Shedding, st.Reason = true, "disk-full latch"
	case s.watermark():
		st.Shedding, st.Reason = true, "free space below low watermark"
	}
	s.mu.Lock()
	st.FreeBytes, st.TotalBytes = s.free, s.total
	s.mu.Unlock()
	return st
}

// ForceNoSpace makes the adapter behave as if the disk were full:
// every delivery sheds with ErrNoSpace until ReleaseNoSpace. This is
// the disk-full drill surface (mailbench -drill diskfull); reads keep
// working, and nothing is written to the store while forced.
func (a *Adapter) ForceNoSpace() {
	if a.shed != nil {
		a.shed.forced.Store(true)
		a.shed.m.active.Set(1)
	}
}

// ReleaseNoSpace lifts ForceNoSpace; the store resumes accepting
// deliveries immediately (modulo the real watermark policy).
func (a *Adapter) ReleaseNoSpace() {
	if a.shed != nil {
		a.shed.forced.Store(false)
		a.shed.m.active.Set(0)
	}
}
