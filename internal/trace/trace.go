// Package trace is the request-scoped tracing layer: dependency-free
// (standard library only) span trees with monotonic timestamps, a
// per-process trace-ID sequence, a lock-free bounded ring buffer of
// completed traces, and slowest-N retention per operation kind.
//
// The package exists because the metrics layer (internal/obs) answers
// "how much" — aggregate counts and latency quantiles — but cannot say
// *where inside one Deliver* the fsync tail lives. A trace is a tree of
// timed spans: the SMTP/POP3 verb handler opens the root, the mailboat
// library opens stage children (spool write, publish, the SyncDir
// barrier), and the gfs middleware chain contributes leaf spans and
// event annotations, so a single delivery renders as a nested timeline
// attributing its latency stage by stage.
//
// Like obs, every method is nil-receiver-safe: a nil *Tracer starts nil
// *Spans, and every Span method on nil is a no-op, so instrumented code
// needs no "is tracing enabled?" branches. The model checker's
// executions stay trace-free by construction: spans travel on the
// thread handle via the Carrier interface, which only the native
// (real-goroutine) handles implement — *machine.T does not, so Enter on
// a checker thread is one failed type assertion and no allocation,
// and checked histories cannot observe wall-clock time through spans.
// Event is the exception that keeps one call site for both worlds: on
// a *machine.T it writes the event into the execution's own trace, so
// a counterexample shows it.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a request. Spans form a tree under the
// trace root; timestamps come from the monotonic clock (time.Now's
// monotonic reading), so child windows nest truthfully inside their
// parent even across wall-clock adjustments.
//
// A span is owned by the goroutine executing its request; methods on a
// single span are not meant for concurrent callers, but completed
// traces published to a Tracer are immutable and safe to read from any
// goroutine.
type Span struct {
	Name   string
	parent *Span

	start time.Time
	dur   time.Duration
	ended bool

	children []*Span
	notes    []string

	// Root-only bookkeeping: where to publish on End.
	tracer *Tracer
	op     string
	id     uint64
}

// Child opens a started child span. Nil-safe: a nil receiver returns
// nil, so the untraced path stays branch-free at call sites.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, parent: s, start: time.Now()}
	s.children = append(s.children, c)
	return c
}

// End closes the span. Ending a root span publishes the completed
// trace to its tracer. End is idempotent; End on nil is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.dur = time.Since(s.start)
	s.ended = true
	if s.tracer != nil {
		s.tracer.publish(s)
	}
}

// Note attaches a formatted annotation (a point event: an injected
// fault, a detected checksum mismatch, a mirror failover) to the span.
func (s *Span) Note(format string, args ...any) {
	if s == nil {
		return
	}
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// Duration returns the span's duration: final once ended, running
// elapsed time before that, zero on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Notes returns the span's annotations in creation order.
func (s *Span) Notes() []string {
	if s == nil {
		return nil
	}
	return s.notes
}

// Trace is a completed request: a root span tree plus identity.
type Trace struct {
	ID   uint64
	Op   string // operation kind: "deliver", "pickup", "delete", "recover"
	Root *Span
}

// Duration returns the root span's duration.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return t.Root.Duration()
}

// Carrier is implemented by thread handles that can carry the active
// span across layer boundaries. The gfs stack passes a thread handle
// (gfs.T) — not a context.Context — through every call, so the span
// rides on it: the daemon's per-request handle (mailboatd) implements
// Carrier; gfs.Native and the checker's *machine.T deliberately do
// not, which is what keeps bare and checked executions trace-free.
type Carrier interface {
	TraceSpan() *Span
	SetTraceSpan(*Span)
}

// Enter opens a child of t's active span, makes it current, and
// returns it; pair with Exit. If t does not carry a span (checker
// threads, untraced requests) Enter returns nil and the call costs one
// type assertion.
func Enter(t any, name string) *Span {
	c, ok := t.(Carrier)
	if !ok {
		return nil
	}
	cur := c.TraceSpan()
	if cur == nil {
		return nil
	}
	child := cur.Child(name)
	c.SetTraceSpan(child)
	return child
}

// Exit ends a span opened by Enter and restores its parent as t's
// current span. Exit(t, nil) is a no-op.
func Exit(t any, s *Span) {
	if s == nil {
		return
	}
	s.End()
	if c, ok := t.(Carrier); ok {
		c.SetTraceSpan(s.parent)
	}
}

// tracer is a thread handle that keeps a trace of its own: the model
// checker's *machine.T, whose lines go into the execution's trace (a
// counterexample's "trace:").
type tracer interface {
	Tracing() bool
	Tracef(format string, args ...any)
}

// Active reports whether an Event on t would be recorded: t carries an
// active span, or keeps a trace that is on. A caller whose Event
// arguments cost something to box guards the call with it.
func Active(t any) bool {
	switch c := t.(type) {
	case Carrier:
		return c.TraceSpan() != nil
	case tracer:
		return c.Tracing()
	}
	return false
}

// Event annotates t's active span with a point event, if any, or adds
// it to the trace t keeps. Callers should keep the arguments cheap, or
// guard the call with Active: they are evaluated even when nothing
// records them (the format call is not).
func Event(t any, format string, args ...any) {
	switch c := t.(type) {
	case Carrier:
		if sp := c.TraceSpan(); sp != nil {
			sp.Note(format, args...)
		}
	case tracer:
		if c.Tracing() {
			c.Tracef(format, args...)
		}
	}
}

// DefaultRing and DefaultSlowest size New's retention when callers pass
// zero: the ring keeps the most recent completed traces for /traces,
// and each op kind keeps its N slowest for /traces/slow.
const (
	DefaultRing    = 256
	DefaultSlowest = 8
)

// Tracer starts root spans and retains completed traces. The ring of
// recent traces is lock-free on both sides (an atomic slot index plus
// atomic slot pointers); only slowest-N retention takes a small mutex,
// and only on the completion path — never inside a span.
type Tracer struct {
	ring []atomic.Pointer[Trace]
	next atomic.Uint64 // next ring slot (monotone; slot = next % len)
	ids  atomic.Uint64

	slowN   int
	mu      sync.Mutex          // guards slowest
	slowest map[string][]*Trace // per op, sorted slowest-first, ≤ slowN

	// Stages, when set, receives every completed span's duration keyed
	// by (root op, span name), feeding the per-stage obs histograms.
	Stages *StageMetrics
}

// New returns a tracer retaining the last ringSize completed traces and
// the slowestPerOp slowest per op kind (zero values pick the defaults).
func New(ringSize, slowestPerOp int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRing
	}
	if slowestPerOp <= 0 {
		slowestPerOp = DefaultSlowest
	}
	return &Tracer{
		ring:    make([]atomic.Pointer[Trace], ringSize),
		slowN:   slowestPerOp,
		slowest: map[string][]*Trace{},
	}
}

// Start opens a root span for a new request of the given op kind
// ("deliver", "pickup", ...). The returned span publishes the completed
// trace when ended. Nil-safe: a nil tracer returns a nil span.
func (tr *Tracer) Start(op, name string) *Span {
	if tr == nil {
		return nil
	}
	return &Span{
		Name:   name,
		start:  time.Now(),
		tracer: tr,
		op:     op,
		id:     tr.ids.Add(1),
	}
}

// publish retains a completed root span: ring slot, slowest-N, stage
// histograms.
func (tr *Tracer) publish(root *Span) {
	t := &Trace{ID: root.id, Op: root.op, Root: root}
	slot := (tr.next.Add(1) - 1) % uint64(len(tr.ring))
	tr.ring[slot].Store(t)

	tr.Stages.observeTree(t.Op, root)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.slowest[t.Op]
	i := len(s)
	for i > 0 && s[i-1].Duration() < t.Duration() {
		i--
	}
	if i < tr.slowN {
		s = append(s, nil)
		copy(s[i+1:], s[i:])
		s[i] = t
		if len(s) > tr.slowN {
			s = s[:tr.slowN]
		}
		tr.slowest[t.Op] = s
	}
}

// Recent returns up to n completed traces, most recent first,
// optionally filtered by op kind ("" = all).
func (tr *Tracer) Recent(op string, n int) []*Trace {
	if tr == nil || n <= 0 {
		return nil
	}
	var out []*Trace
	end := tr.next.Load()
	size := uint64(len(tr.ring))
	scan := size
	if end < size {
		scan = end
	}
	for i := uint64(0); i < scan && len(out) < n; i++ {
		t := tr.ring[(end-1-i)%size].Load()
		if t == nil {
			continue
		}
		if op != "" && t.Op != op {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Slowest returns the retained slowest traces for one op kind, or for
// every op kind when op is "" (slowest-first within an op).
func (tr *Tracer) Slowest(op string) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if op != "" {
		return append([]*Trace{}, tr.slowest[op]...)
	}
	ops := make([]string, 0, len(tr.slowest))
	for k := range tr.slowest {
		ops = append(ops, k)
	}
	// Stable op order for rendering.
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j] < ops[j-1]; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	var out []*Trace
	for _, k := range ops {
		out = append(out, tr.slowest[k]...)
	}
	return out
}

// Ops returns the op kinds with retained slowest traces, sorted.
func (tr *Tracer) Ops() []string {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ops := make([]string, 0, len(tr.slowest))
	for k := range tr.slowest {
		ops = append(ops, k)
	}
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j] < ops[j-1]; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	return ops
}

// Validate checks that a completed trace is structurally sound: every
// span ended, children lie within their parent's window in
// non-overlapping creation order, and each span's child durations sum
// to no more than the span's own duration. It is the acceptance check
// behind "child durations sum within the root span".
func Validate(t *Trace) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("trace: empty trace")
	}
	return validateSpan(t.Root)
}

func validateSpan(s *Span) error {
	if !s.ended {
		return fmt.Errorf("trace: span %q never ended", s.Name)
	}
	end := s.start.Add(s.dur)
	var sum time.Duration
	var prevEnd time.Time
	for _, c := range s.children {
		if !c.ended {
			return fmt.Errorf("trace: span %q never ended", c.Name)
		}
		if c.start.Before(s.start) {
			return fmt.Errorf("trace: child %q starts before parent %q", c.Name, s.Name)
		}
		if c.start.Add(c.dur).After(end) {
			return fmt.Errorf("trace: child %q ends after parent %q", c.Name, s.Name)
		}
		if c.start.Before(prevEnd) {
			return fmt.Errorf("trace: child %q overlaps its predecessor in %q", c.Name, s.Name)
		}
		prevEnd = c.start.Add(c.dur)
		sum += c.dur
		if err := validateSpan(c); err != nil {
			return err
		}
	}
	if sum > s.dur {
		return fmt.Errorf("trace: children of %q sum to %v > parent %v", s.Name, sum, s.dur)
	}
	return nil
}

// Depth returns the maximum span nesting depth of the trace (the root
// counts as 1).
func Depth(t *Trace) int {
	if t == nil || t.Root == nil {
		return 0
	}
	return spanDepth(t.Root)
}

func spanDepth(s *Span) int {
	d := 1
	for _, c := range s.children {
		if cd := 1 + spanDepth(c); cd > d {
			d = cd
		}
	}
	return d
}
