package machine

import (
	"fmt"
	"slices"
	"testing"
)

// branching is a device whose Crash makes a tree of crash-time choices:
// "a" over two options, and under a=1 "b" over three. It records the
// answers as its durable state.
type branching struct {
	m     *Machine
	state []int
}

func (d *branching) Crash() {
	a := d.m.CrashChoose(2, "a")
	d.state = append(d.state[:0:0], a)
	if a == 1 {
		d.state = append(d.state, d.m.CrashChoose(3, "b"))
	}
	d.m.CrashChoose(1, "one") // a single option is no choice
}

func (d *branching) Save() (restore func()) {
	state := d.state
	return func() { d.state = state }
}

func (d *branching) AppendDurable(b []byte) []byte {
	for _, a := range d.state {
		b = AppendUint64(b, uint64(a))
	}
	return b
}

// TestProbeCrashVisitsEveryAnswerVector: ProbeCrash runs the devices'
// Crash once per vector of crash-time answers, in depth-first order,
// shows visit the post-crash state, and leaves the machine as it was.
func TestProbeCrashVisitsEveryAnswerVector(t *testing.T) {
	m := New(Options{})
	d := &branching{m: m, state: []int{9}}
	m.RegisterDevice(d)
	var got []string
	m.ProbeCrash(func(answers []CrashAnswer) {
		if m.Version() != 2 {
			t.Errorf("version %d inside the probe, want 2", m.Version())
		}
		got = append(got, fmt.Sprintf("%v=%v", answers, d.state))
	})
	want := []string{
		"[{2 0 a}]=[0]",
		"[{2 1 a} {3 0 b}]=[1 0]",
		"[{2 1 a} {3 1 b}]=[1 1]",
		"[{2 1 a} {3 2 b}]=[1 2]",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ProbeCrash visited %q; want %q", got, want)
	}
	if m.Version() != 1 || !slices.Equal(d.state, []int{9}) {
		t.Fatalf("after the probe: version %d, state %v; want 1 and [9]", m.Version(), d.state)
	}
}

// TestProbeCrashMidEra: probed at a draw of a running era, between two
// steps of a thread, the crash declares nothing and asks the era's
// chooser nothing, and the thread goes on as if there had been no probe.
func TestProbeCrashMidEra(t *testing.T) {
	m := New(Options{})
	d := &branching{m: m}
	m.RegisterDevice(d)
	asked := 0
	chooser := ChooserFunc(func(n int, tag string) int {
		asked++
		if tag != "sched" {
			t.Errorf("the era's chooser was asked %q", tag)
		}
		return 0
	})
	leaves := 0
	res := m.RunEra(chooser, false, func(mt *T) {
		mt.Step("before")
		m.ProbeCrash(func([]CrashAnswer) { leaves++ })
		mt.Step("after")
	})
	if res.Outcome != Done || leaves != 4 || asked != 3 || d.state != nil {
		t.Fatalf("era %v, %d leaves, %d draws, state %v; want done, 4, 3, nil", res.Outcome, leaves, asked, d.state)
	}
}
