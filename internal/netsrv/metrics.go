package netsrv

import (
	"strings"

	"repro/internal/obs"
)

// Metrics is one front end's connection and command metrics. Its owner
// holds it by value; the zero value records nothing, and a Server
// without metrics behaves exactly the same.
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
func NewMetrics(r *obs.Registry, prefix, refusedHelp string, verbs []string) Metrics {
	proto := strings.ToUpper(prefix)
	m := Metrics{
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

// counter returns the command counter of an upper-cased verb: its own
// series, or "other"'s.
func (m *Metrics) counter(verb string) *obs.Counter {
	if c, ok := m.commands[verb]; ok {
		return c
	}
	return m.commands["other"]
}
