package smtp

import (
	"repro/internal/netsrv"
	"repro/internal/obs"
)

// smtpVerbs are the commands that get their own counter series.
var smtpVerbs = []string{"HELO", "EHLO", "MAIL", "RCPT", "DATA", "RSET", "NOOP", "QUIT"}

// Metrics is the SMTP front end's slice of the observability surface:
// the shared connection and command set plus the two reply counters
// only SMTP has. All methods are nil-receiver-safe; a Server with nil
// Metrics behaves exactly the same.
type Metrics struct {
	*netsrv.Metrics
	TempFail *obs.Counter
	Full     *obs.Counter
}

// NewMetrics registers the smtp_* metric families in r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Metrics:  netsrv.NewMetrics(r, "smtp", "SMTP connections refused with 421 (full or shutting down).", smtpVerbs),
		TempFail: r.Counter("smtp_tempfail_responses_total", "451 responses sent (transient store failure surfaced to the sender)."),
		Full:     r.Counter("smtp_insufficient_storage_responses_total", "452 responses sent (store out of space or shedding load)."),
	}
}

// tempFailure counts one 451 response.
func (m *Metrics) tempFailure() {
	if m == nil {
		return
	}
	m.TempFail.Inc()
}

// insufficientStorage counts one 452 response.
func (m *Metrics) insufficientStorage() {
	if m == nil {
		return
	}
	m.Full.Inc()
}
