package pop3

import (
	"repro/internal/netsrv"
	"repro/internal/obs"
)

// pop3Verbs are the commands that get their own counter series.
var pop3Verbs = []string{"USER", "PASS", "STAT", "LIST", "RETR", "TOP", "UIDL", "DELE", "RSET", "NOOP", "QUIT"}

// Metrics is the POP3 front end's slice of the observability surface:
// the shared connection and command set plus the transient-failure
// counter. All methods are nil-receiver-safe; a Server with nil Metrics
// behaves exactly the same.
type Metrics struct {
	*netsrv.Metrics
	TempFail *obs.Counter
}

// NewMetrics registers the pop3_* metric families in r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Metrics:  netsrv.NewMetrics(r, "pop3", "POP3 connections refused (full or shutting down).", pop3Verbs),
		TempFail: r.Counter("pop3_tempfail_responses_total", "-ERR [SYS/TEMP] responses sent (transient store failure surfaced to the client)."),
	}
}

// tempFailure counts one -ERR [SYS/TEMP] response.
func (m *Metrics) tempFailure() {
	if m == nil {
		return
	}
	m.TempFail.Inc()
}
