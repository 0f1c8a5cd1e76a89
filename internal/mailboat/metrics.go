package mailboat

import "repro/internal/obs"

// Metrics is the verified library's slice of the observability surface:
// spec-level operation outcomes rather than raw file-system calls
// (those belong to gfs.FSMetrics). It is held by value, and its zero
// value means metrics are off: obs handles are nil-safe, so the library
// instruments itself unconditionally and scenarios that run under the
// model checker (a zero Config.Metrics) pay nothing — in particular no
// wall-clock reads (Histogram.Start), which keeps checker executions
// free of stray syscalls.
type Metrics struct {
	// Deliver protocol: attempts counts every spool-write-link round
	// (so attempts - committed - failed = retries still in flight),
	// retries counts rounds after the first, committed/failed are the
	// spec-level outcomes, and latency spans the whole retry loop.
	DeliverAttempts  *obs.Counter
	DeliverRetries   *obs.Counter
	DeliverCommitted *obs.Counter
	DeliverFailed    *obs.Counter
	DeliverSeconds   *obs.Histogram

	// Pickup: one count per Pickup call, plus the messages and bytes it
	// returned and the time it took (listing + chunked reads).
	Pickups        *obs.Counter
	PickupMessages *obs.Counter
	PickupBytes    *obs.Counter
	PickupSeconds  *obs.Histogram

	// Delete outcomes (a false Delete is the spec's transient refusal).
	Deletes      *obs.Counter
	DeleteFailed *obs.Counter

	// Recovery: runs and the spool entries cleaned up (§8.3's TmpInv
	// made measurable: how much half-delivered garbage each crash left,
	// and how many bytes sweeping it returned to the store).
	Recoveries            *obs.Counter
	RecoverSpoolSwept     *obs.Counter
	RecoverSweepFailed    *obs.Counter
	RecoverReclaimedBytes *obs.Counter

	// Quota: deliveries refused up front because the recipient's mailbox
	// is at its Config.QuotaBytes budget.
	QuotaRejected *obs.Counter
}

// NewMetrics registers the library's metric families in r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		DeliverAttempts:  r.Counter("mailboat_deliver_attempts_total", "Spool-write-link delivery attempts (including retries)."),
		DeliverRetries:   r.Counter("mailboat_deliver_retries_total", "Delivery attempts after the first, per Deliver call."),
		DeliverCommitted: r.Counter("mailboat_deliver_committed_total", "Deliveries committed (message visible in the mailbox)."),
		DeliverFailed:    r.Counter("mailboat_deliver_failed_total", "Deliveries that exhausted retries and reported transient failure."),
		DeliverSeconds:   r.Histogram("mailboat_deliver_seconds", "Deliver latency including retries and backoff.", obs.DefLatencyBuckets),
		Pickups:          r.Counter("mailboat_pickup_total", "Pickup calls (mailbox listings plus reads)."),
		PickupMessages:   r.Counter("mailboat_pickup_messages_total", "Messages returned by Pickup."),
		PickupBytes:      r.Counter("mailboat_pickup_bytes_total", "Message bytes returned by Pickup."),
		PickupSeconds:    r.Histogram("mailboat_pickup_seconds", "Pickup latency (listing plus chunked reads).", obs.DefLatencyBuckets),
		Deletes:          r.Counter("mailboat_delete_total", "Delete calls that removed the message."),
		DeleteFailed:     r.Counter("mailboat_delete_failed_total", "Delete calls transiently refused by the store."),
		Recoveries:       r.Counter("mailboat_recover_total", "Recovery runs (boot and post-crash)."),
		RecoverSpoolSwept: r.Counter("mailboat_recover_spool_swept_total",
			"Leftover spool files removed by recovery (half-finished deliveries)."),
		RecoverSweepFailed: r.Counter("mailboat_recover_spool_sweep_failed_total",
			"Spool files recovery could not remove (transient delete failures)."),
		RecoverReclaimedBytes: r.Counter("mailboat_gc_reclaimed_bytes_total",
			"Bytes returned to the store by recovery's orphan-spool sweep."),
		QuotaRejected: r.Counter("mailboat_quota_rejections_total",
			"Deliveries refused up front because the recipient is over quota."),
	}
}
