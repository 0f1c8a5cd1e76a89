package gfs

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// ScrubReport summarizes one scrub pass over a store. Checked, Unsealed
// and Bad describe the store as the pass left it; Corrupt and Healed
// count what it met and mended on the way.
type ScrubReport struct {
	// Checked counts file instances verified (per replica on a mirror).
	Checked int
	// Corrupt counts damaged envelopes found this pass.
	Corrupt int
	// Unsealed counts well-formed files without a seal (in-progress or
	// crash-abandoned writes; not corruption).
	Unsealed int
	// Healed counts files rewritten from a good redundant copy.
	Healed int
	// Bad lists "dir/name" paths still damaged after the pass (corrupt
	// with no good copy to heal from, or healing disabled/failed).
	Bad []string
}

// String renders the report on one line.
func (r ScrubReport) String() string {
	return fmt.Sprintf("checked=%d corrupt=%d unsealed=%d healed=%d bad=%d",
		r.Checked, r.Corrupt, r.Unsealed, r.Healed, len(r.Bad))
}

// Clean reports whether the pass left no damage behind.
func (r ScrubReport) Clean() bool { return len(r.Bad) == 0 }

// Scrubber is implemented by stores that can verify (and, given
// redundancy, repair) their integrity: Checksummed detects, Mirrored
// detects and heals. mailboat.Recover scrubs at boot wherever a
// completed Resilver has not already reported on every copy, and
// mailboatd exposes scrubbing as a background loop and an admin
// endpoint.
type Scrubber interface {
	Scrub(t T, heal bool) ScrubReport
}

// AsScrubber finds the stack's outermost Scrubber; nil if it has none.
func AsScrubber(sys System) Scrubber { return asLayer[Scrubber](sys) }

// IntegrityMetrics is the integrity layer's slice of the observability
// surface. All methods tolerate a nil receiver, so checker runs stay
// metric-free.
type IntegrityMetrics struct {
	detectedC *obs.Counter
	healedC   *obs.Counter
	scrubSec  *obs.Histogram
}

// NewIntegrityMetrics registers gfs_integrity_detected_total,
// gfs_integrity_healed_total and gfs_integrity_scrub_seconds in r.
func NewIntegrityMetrics(r *obs.Registry) *IntegrityMetrics {
	return &IntegrityMetrics{
		detectedC: r.Counter("gfs_integrity_detected_total",
			"Checksum-envelope integrity failures detected."),
		healedC: r.Counter("gfs_integrity_healed_total",
			"Files healed from a redundant replica after an integrity failure."),
		scrubSec: r.Histogram("gfs_integrity_scrub_seconds",
			"Scrub pass duration.", obs.DefLatencyBuckets),
	}
}

func (m *IntegrityMetrics) detected() {
	if m == nil {
		return
	}
	m.detectedC.Inc()
}

func (m *IntegrityMetrics) healed() {
	if m == nil {
		return
	}
	m.healedC.Inc()
}

// ScrubDone records one scrub pass's wall-clock duration.
func (m *IntegrityMetrics) ScrubDone(d time.Duration) {
	if m == nil {
		return
	}
	m.scrubSec.Observe(d.Seconds())
}
