package netmodel

import "repro/internal/obs"

// NetMetrics is the replication transport's observability surface
// (net_*): calls, and their outcomes as the caller saw them. repl's
// TCPClient writes it. It is held by value; its zero value, a client's
// without metrics, records nothing (obs handles are nil-safe).
type NetMetrics struct {
	Calls     *obs.Counter
	Delivered *obs.Counter
	Lost      *obs.Counter
	Unknown   *obs.Counter
}

// NewNetMetrics registers the net_* metric families in r.
func NewNetMetrics(r *obs.Registry) NetMetrics {
	return NetMetrics{
		Calls:     r.Counter("net_calls_total", "Calls attempted over the replication link."),
		Delivered: r.Counter("net_outcomes_total", "Call outcomes as observed by the caller.", "outcome", Delivered.String()),
		Lost:      r.Counter("net_outcomes_total", "Call outcomes as observed by the caller.", "outcome", Lost.String()),
		Unknown:   r.Counter("net_outcomes_total", "Call outcomes as observed by the caller.", "outcome", Unknown.String()),
	}
}
