package trace

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// StageMetrics bridges span durations into obs: every completed span
// feeds a trace_stage_seconds{op,stage} histogram, so the per-stage
// latency distribution (spool write vs. link vs. the SyncDir barrier)
// is scrapeable from /metrics.
//
// Cardinality stays bounded because both labels come from code — op
// kinds are the four request verbs and stage names are span-name
// literals — never from user input.
type StageMetrics struct {
	reg *obs.Registry

	mu    sync.Mutex
	hists map[string]*obs.Histogram // keyed op + "\x00" + stage
}

// NewStageMetrics returns stage metrics registering histograms in reg.
func NewStageMetrics(reg *obs.Registry) *StageMetrics {
	if reg == nil {
		return nil
	}
	return &StageMetrics{reg: reg, hists: map[string]*obs.Histogram{}}
}

// hist returns the (op, stage) histogram, registering on first use. The
// local cache keeps the completion path off the registry lock except
// for the first observation of each series.
func (m *StageMetrics) hist(op, stage string) *obs.Histogram {
	key := op + "\x00" + stage
	m.mu.Lock()
	h, ok := m.hists[key]
	if !ok {
		h = m.reg.Histogram("trace_stage_seconds",
			"Span durations by request op kind and stage name.",
			obs.DefLatencyBuckets, "op", op, "stage", stage)
		m.hists[key] = h
	}
	m.mu.Unlock()
	return h
}

// observe records one span duration. Nil-safe.
func (m *StageMetrics) observe(op, stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.hist(op, stage).ObserveDuration(d)
}

// observeTree records every span in a completed trace.
func (m *StageMetrics) observeTree(op string, s *Span) {
	if m == nil || s == nil {
		return
	}
	m.observe(op, s.Name, s.dur)
	for _, c := range s.children {
		m.observeTree(op, c)
	}
}
