package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteText renders a completed trace as an indented timeline: one line
// per span with its offset from the root, its duration, and any event
// annotations beneath it.
//
//	trace 42 op=deliver 1.84ms
//	  smtp.DATA                         +0s      1.84ms
//	    mailboat.deliver                +121µs   1.69ms
//	      spool.write                   +130µs   801µs
//	        gfs.create                  +132µs   210µs
//	      publish.link                  +940µs   213µs
//	      syncdir.barrier               +1.16ms  520µs
//
// (Mailboat's delivery stages are siblings: the directory barrier is a
// stage of its own, not a child of the link.)
func WriteText(w io.Writer, t *Trace) {
	if t == nil || t.Root == nil {
		return
	}
	fmt.Fprintf(w, "trace %d op=%s %v\n", t.ID, t.Op, round(t.Duration()))
	writeSpanText(w, t.Root, t.Root.start, 1)
}

func writeSpanText(w io.Writer, s *Span, epoch time.Time, depth int) {
	indent := strings.Repeat("  ", depth)
	name := indent + s.Name
	fmt.Fprintf(w, "%-34s +%-9v %v\n", name, round(s.start.Sub(epoch)), round(s.Duration()))
	for _, n := range s.notes {
		fmt.Fprintf(w, "%s  ! %s\n", indent, n)
	}
	for _, c := range s.children {
		writeSpanText(w, c, epoch, depth+1)
	}
}

// round trims durations to a readable precision for the timeline.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}

// SpanJSON is the wire shape of one span for the JSON renderer: offsets
// and durations in microseconds relative to the trace root.
type SpanJSON struct {
	Name     string     `json:"name"`
	StartUS  int64      `json:"start_us"`
	DurUS    int64      `json:"dur_us"`
	Notes    []string   `json:"notes,omitempty"`
	Children []SpanJSON `json:"children,omitempty"`
}

// TraceJSON is the wire shape of one completed trace.
type TraceJSON struct {
	ID    uint64   `json:"id"`
	Op    string   `json:"op"`
	DurUS int64    `json:"dur_us"`
	Root  SpanJSON `json:"root"`
}

// ToJSON converts a completed trace to its wire shape.
func ToJSON(t *Trace) TraceJSON {
	if t == nil || t.Root == nil {
		return TraceJSON{}
	}
	return TraceJSON{
		ID:    t.ID,
		Op:    t.Op,
		DurUS: t.Duration().Microseconds(),
		Root:  spanJSON(t.Root, t.Root.start),
	}
}

func spanJSON(s *Span, epoch time.Time) SpanJSON {
	j := SpanJSON{
		Name:    s.Name,
		StartUS: s.start.Sub(epoch).Microseconds(),
		DurUS:   s.Duration().Microseconds(),
		Notes:   s.notes,
	}
	for _, c := range s.children {
		j.Children = append(j.Children, spanJSON(c, epoch))
	}
	return j
}
