package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// testCarrier is a minimal Carrier, standing in for the daemon's
// per-request thread handle.
type testCarrier struct{ sp *Span }

func (c *testCarrier) TraceSpan() *Span     { return c.sp }
func (c *testCarrier) SetTraceSpan(s *Span) { c.sp = s }

// TestNilSafety drives the whole API through nil receivers: the
// contract that lets the untraced (and checker) paths run the same
// instrumented code with zero branches.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("deliver", "root")
	if sp != nil {
		t.Fatalf("nil tracer started a span")
	}
	sp.Note("ignored %d", 1)
	child := sp.Child("x")
	if child != nil {
		t.Fatalf("nil span produced a child")
	}
	child.End()
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span has duration %v", d)
	}
	if got := tr.Recent("", 10); got != nil {
		t.Fatalf("nil tracer has recent traces")
	}
	if got := tr.Slowest(""); got != nil {
		t.Fatalf("nil tracer has slowest traces")
	}
	var m *StageMetrics
	m.observe("deliver", "x", time.Millisecond)
	// Enter/Exit/Event against a non-Carrier (the checker shape) and
	// against a Carrier with no active span (untraced request).
	if sp := Enter(struct{}{}, "x"); sp != nil {
		t.Fatalf("non-carrier entered a span")
	}
	Exit(struct{}{}, nil)
	Event(struct{}{}, "ignored")
	c := &testCarrier{}
	if sp := Enter(c, "x"); sp != nil {
		t.Fatalf("carrier with no active span entered a span")
	}
	Event(c, "ignored")
}

// TestSpanTreeNesting builds a realistic tree via Enter/Exit and checks
// structure, validation, and depth.
func TestSpanTreeNesting(t *testing.T) {
	tr := New(8, 4)
	root := tr.Start("deliver", "smtp.DATA")
	c := &testCarrier{sp: root}

	del := Enter(c, "mailboat.deliver")
	spool := Enter(c, "spool.write")
	leaf := Enter(c, "gfs.append")
	time.Sleep(100 * time.Microsecond)
	Exit(c, leaf)
	Exit(c, spool)
	pub := Enter(c, "publish.link")
	bar := Enter(c, "syncdir.barrier")
	Event(c, "retry attempt=%d", 2)
	time.Sleep(100 * time.Microsecond)
	Exit(c, bar)
	Exit(c, pub)
	Exit(c, del)
	if c.sp != root {
		t.Fatalf("Exit did not restore the root span")
	}
	root.End()

	got := tr.Recent("deliver", 1)
	if len(got) != 1 {
		t.Fatalf("expected 1 recent trace, got %d", len(got))
	}
	tc := got[0]
	if err := Validate(tc); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if d := Depth(tc); d != 4 {
		t.Fatalf("depth = %d, want 4", d)
	}
	if len(tc.Root.Children()) != 1 || tc.Root.Children()[0].Name != "mailboat.deliver" {
		t.Fatalf("unexpected root children: %+v", tc.Root.Children())
	}
	if n := tc.Root.Children()[0].Children(); len(n) != 2 {
		t.Fatalf("deliver should have 2 stage children, got %d", len(n))
	}

	var buf bytes.Buffer
	WriteText(&buf, tc)
	out := buf.String()
	for _, want := range []string{"op=deliver", "smtp.DATA", "mailboat.deliver", "spool.write", "syncdir.barrier", "! retry attempt=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text render missing %q:\n%s", want, out)
		}
	}

	b, err := json.Marshal(ToJSON(tc))
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var round TraceJSON
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("json round trip: %v", err)
	}
	if round.Op != "deliver" || round.Root.Name != "smtp.DATA" {
		t.Fatalf("json round trip mangled trace: %+v", round)
	}
}

// TestValidateRejectsBrokenTrees checks Validate's negative cases.
func TestValidateRejectsBrokenTrees(t *testing.T) {
	tr := New(4, 2)
	root := tr.Start("deliver", "root")
	child := root.Child("child")
	root.End() // root ends before child
	if err := Validate(&Trace{ID: 1, Op: "deliver", Root: root}); err == nil {
		t.Fatalf("Validate accepted an unended child")
	}
	child.End()
	// Forge a child that ends after its parent.
	bad := root.Child("late")
	bad.start = root.start.Add(-time.Second)
	bad.dur = time.Nanosecond
	bad.ended = true
	if err := Validate(&Trace{ID: 2, Op: "deliver", Root: root}); err == nil {
		t.Fatalf("Validate accepted a child outside the parent window")
	}
}

// TestRingRetention fills the ring past capacity and checks the most
// recent survive, most-recent-first, with op filtering.
func TestRingRetention(t *testing.T) {
	tr := New(4, 2)
	for i := 0; i < 10; i++ {
		op := "deliver"
		if i%2 == 1 {
			op = "pickup"
		}
		tr.Start(op, fmt.Sprintf("r%d", i)).End()
	}
	all := tr.Recent("", 10)
	if len(all) != 4 {
		t.Fatalf("ring of 4 retained %d", len(all))
	}
	if all[0].Root.Name != "r9" || all[3].Root.Name != "r6" {
		t.Fatalf("wrong retention order: %s..%s", all[0].Root.Name, all[3].Root.Name)
	}
	del := tr.Recent("deliver", 10)
	for _, d := range del {
		if d.Op != "deliver" {
			t.Fatalf("op filter leaked %q", d.Op)
		}
	}
}

// TestSlowestRetention checks slowest-N per op: order, cap, and that a
// fast flood cannot evict a slow outlier.
func TestSlowestRetention(t *testing.T) {
	tr := New(64, 3)
	mk := func(op string, d time.Duration, name string) {
		s := tr.Start(op, name)
		s.dur = d
		s.ended = true
		tr.publish(s)
	}
	mk("deliver", 5*time.Millisecond, "slow")
	for i := 0; i < 50; i++ {
		mk("deliver", time.Microsecond, "fast")
	}
	mk("deliver", 3*time.Millisecond, "mid")
	mk("pickup", 7*time.Millisecond, "p")

	s := tr.Slowest("deliver")
	if len(s) != 3 {
		t.Fatalf("slowest cap: got %d", len(s))
	}
	if s[0].Root.Name != "slow" || s[1].Root.Name != "mid" {
		t.Fatalf("slowest order wrong: %s, %s", s[0].Root.Name, s[1].Root.Name)
	}
	if got := tr.Ops(); len(got) != 2 || got[0] != "deliver" || got[1] != "pickup" {
		t.Fatalf("ops = %v", got)
	}
	if all := tr.Slowest(""); len(all) != 4 {
		t.Fatalf("slowest all ops: got %d", len(all))
	}
}

// TestStageMetrics checks span durations land in the per-(op,stage)
// histograms, root and child alike.
func TestStageMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(8, 2)
	tr.Stages = NewStageMetrics(reg)
	root := tr.Start("deliver", "smtp.DATA")
	c := &testCarrier{sp: root}
	sp := Enter(c, "spool.write")
	time.Sleep(50 * time.Microsecond)
	Exit(c, sp)
	root.End()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"smtp.DATA", "spool.write"} {
		want := `trace_stage_seconds_count{op="deliver",stage="` + stage + `"} 1`
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("stage histogram %s not exported:\n%s", stage, buf.String())
		}
	}
}

// TestConcurrentPublishAndRead hammers the ring from publishers while
// readers scan it; meaningful under -race.
func TestConcurrentPublishAndRead(t *testing.T) {
	tr := New(16, 4)
	var pubs sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tc := range tr.Recent("", 16) {
				_ = Validate(tc)
			}
			tr.Slowest("")
		}
	}()
	for w := 0; w < 4; w++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 500; i++ {
				root := tr.Start("deliver", "r")
				root.Child("c").End()
				root.End()
			}
		}()
	}
	pubs.Wait()
	close(stop)
	<-done
}
