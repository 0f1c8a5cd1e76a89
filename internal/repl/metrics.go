package repl

import "repro/internal/obs"

// Metrics is the replication layer's observability surface (repl_*). It
// is held by value, and its zero value — a checker run's — records
// nothing, because obs handles are nil-safe: Node instruments itself
// unconditionally, the same contract as mailboat.Metrics and
// netmodel.NetMetrics, audited by the zero-metrics full-stack test.
type Metrics struct {
	ReplicateOK     *obs.Counter
	ReplicateRetry  *obs.Counter
	ReplicateFailed *obs.Counter
	Indeterminate   *obs.Counter
	AckAlone        *obs.Counter
	Resyncs         *obs.Counter
	ResyncFailed    *obs.Counter
	Failovers       *obs.Counter
	StaleRejected   *obs.Counter
	Epoch           *obs.Gauge
	RolePrimary     *obs.Gauge
	LastResyncUnix  *obs.Gauge
}

// NewMetrics registers the repl_* metric families in r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		ReplicateOK: r.Counter("repl_replicate_total",
			"Replicated operations by outcome.", "outcome", "ok"),
		ReplicateRetry: r.Counter("repl_replicate_total",
			"Replicated operations by outcome.", "outcome", "retry"),
		ReplicateFailed: r.Counter("repl_replicate_total",
			"Replicated operations by outcome.", "outcome", "failed"),
		Indeterminate: r.Counter("repl_indeterminate_total",
			"Operations abandoned while their replication outcome was unknown (at-least-once hazard)."),
		AckAlone: r.Counter("repl_ack_alone_total",
			"Operations acknowledged with the peer known dead (fenced by its fail-stop)."),
		Resyncs: r.Counter("repl_resync_total",
			"Catch-up resyncs by outcome.", "outcome", "ok"),
		ResyncFailed: r.Counter("repl_resync_total",
			"Catch-up resyncs by outcome.", "outcome", "failed"),
		Failovers: r.Counter("repl_failovers_total",
			"Primary failovers (backup promotions)."),
		StaleRejected: r.Counter("repl_stale_rejected_total",
			"Replication frames rejected for carrying a fenced (stale) epoch."),
		Epoch: r.Gauge("repl_epoch",
			"Current replication epoch of this node."),
		RolePrimary: r.Gauge("repl_role_primary",
			"1 when this node believes it is the primary, 0 when backup."),
		LastResyncUnix: r.Gauge("repl_last_resync_unix",
			"Unix time of the last successful catch-up resync (0 = never)."),
	}
}
