package netsrv

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// Metrics is one front end's connection and command metrics. All
// methods are nil-receiver-safe; a Server without metrics behaves
// exactly the same.
type Metrics struct {
	accepted *obs.Counter
	refused  *obs.Counter
	active   *obs.Gauge
	panics   *obs.Counter
	commands map[string]*obs.Counter
	cmdTime  *obs.Histogram
}

// NewMetrics registers the <prefix>_connections_*, _handler_panics_total,
// _command_seconds and _commands_total{verb} families in r. verbs are
// the commands that get their own counter series; any other input lands
// on "other" to bound label cardinality against hostile clients.
// refusedHelp is the one help string that names the protocol's refusal.
func NewMetrics(r *obs.Registry, prefix, refusedHelp string, verbs []string) *Metrics {
	proto := strings.ToUpper(prefix)
	m := &Metrics{
		accepted: r.Counter(prefix+"_connections_accepted_total", proto+" connections accepted for service."),
		refused:  r.Counter(prefix+"_connections_refused_total", refusedHelp),
		active:   r.Gauge(prefix+"_connections_active", proto+" connections currently being served."),
		panics:   r.Counter(prefix+"_handler_panics_total", "Connection handlers killed by a recovered panic."),
		cmdTime:  r.Histogram(prefix+"_command_seconds", "Latency from command receipt to response flush.", obs.DefLatencyBuckets),
		commands: map[string]*obs.Counter{},
	}
	for _, v := range append(verbs, "other") {
		m.commands[v] = r.Counter(prefix+"_commands_total", proto+" commands processed, by verb.", "verb", v)
	}
	return m
}

// connOpened counts an accepted connection.
func (m *Metrics) connOpened() {
	if m == nil {
		return
	}
	m.accepted.Inc()
	m.active.Inc()
}

// connClosed retires an accepted connection.
func (m *Metrics) connClosed() {
	if m == nil {
		return
	}
	m.active.Dec()
}

// connRefused counts a refused connection.
func (m *Metrics) connRefused() {
	if m == nil {
		return
	}
	m.refused.Inc()
}

// panicked counts a session killed by a recovered panic.
func (m *Metrics) panicked() {
	if m == nil {
		return
	}
	m.panics.Inc()
}

// cmdStart returns the command timestamp (zero when disabled, so the
// serving path reads no clock it does not need).
func (m *Metrics) cmdStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// counter returns the command counter of an upper-cased verb; nil when
// disabled.
func (m *Metrics) counter(verb string) *obs.Counter {
	if m == nil {
		return nil
	}
	if c, ok := m.commands[verb]; ok {
		return c
	}
	return m.commands["other"]
}

// command records a processed command, counted on c, and its handling
// latency.
func (m *Metrics) command(c *obs.Counter, start time.Time) {
	if m == nil {
		return
	}
	c.Inc()
	m.cmdTime.ObserveSince(start)
}
