package netmodel

import "repro/internal/obs"

// NetMetrics is the replication transport's observability surface
// (net_*): calls, and their outcomes as the caller saw them. repl's
// TCPClient writes it; every method is nil-receiver-safe, so a client
// without Metrics stays metric-free by construction.
type NetMetrics struct {
	Calls     *obs.Counter
	Delivered *obs.Counter
	Lost      *obs.Counter
	Unknown   *obs.Counter
}

// NewNetMetrics registers the net_* metric families in r.
func NewNetMetrics(r *obs.Registry) *NetMetrics {
	return &NetMetrics{
		Calls:     r.Counter("net_calls_total", "Calls attempted over the replication link."),
		Delivered: r.Counter("net_outcomes_total", "Call outcomes as observed by the caller.", "outcome", Delivered.String()),
		Lost:      r.Counter("net_outcomes_total", "Call outcomes as observed by the caller.", "outcome", Lost.String()),
		Unknown:   r.Counter("net_outcomes_total", "Call outcomes as observed by the caller.", "outcome", Unknown.String()),
	}
}

// CallsInc counts one call attempt.
func (m *NetMetrics) CallsInc() {
	if m == nil {
		return
	}
	m.Calls.Inc()
}

// OutcomeObserved counts one call outcome.
func (m *NetMetrics) OutcomeObserved(o Outcome) {
	if m == nil {
		return
	}
	switch o {
	case Delivered:
		m.Delivered.Inc()
	case Lost:
		m.Lost.Inc()
	case Unknown:
		m.Unknown.Inc()
	}
}
