package explore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestReductionDeterminism: for a fixed scenario, searches with the
// reductions off and on must report the same verdict, and for a failing
// scenario the same counterexample schedule after Minimize.
func TestReductionDeterminism(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Scenario
		want bool // want a violation
	}{
		{"clean", func() *Scenario { return scenario(true, true) }, false},
		{"buggy", func() *Scenario {
			s := scenario(true, true)
			s.Recover = func(t *machine.T, wAny any) {} // broken recovery
			return s
		}, true},
	}
	for _, tc := range cases {
		var minimized []string
		var schedules []string
		for _, noreduce := range []bool{false, true} {
			rep := Run(tc.mk(), Options{MaxExecutions: 5000, NoReduce: noreduce})
			label := fmt.Sprintf("%s noreduce=%v", tc.name, noreduce)
			if rep.OK() == tc.want {
				t.Fatalf("%s: verdict flipped (violation=%v)", label, !rep.OK())
			}
			if rep.Counterexample == nil {
				if !rep.Complete {
					t.Fatalf("%s: search did not complete", label)
				}
				continue
			}
			min := Minimize(tc.mk(), rep.Counterexample.Choices)
			minimized = append(minimized, fmt.Sprint(min))
			cx := ReplayCx(tc.mk(), min)
			if cx == nil {
				t.Fatalf("%s: minimized counterexample does not replay", label)
			}
			schedules = append(schedules, cx.Schedule.Format())
		}
		for i := 1; i < len(minimized); i++ {
			if minimized[i] != minimized[0] {
				t.Fatalf("%s: minimized counterexamples differ:\n%s\n%s", tc.name, minimized[0], minimized[i])
			}
			if schedules[i] != schedules[0] {
				t.Fatalf("%s: minimized schedules differ:\n%s\n%s", tc.name, schedules[0], schedules[i])
			}
		}
	}
}

// omitsLo registers a world through a device whose AppendDurable
// omits the low half, which a crash keeps all the same.
type omitsLo struct{ *world }

func (d omitsLo) AppendDurable(b []byte) []byte { return machine.AppendUint64(b, uint64(d.hi)) }

// hiOnly is the high half of a world as a device of its own.
type hiOnly struct{ w *world }

func (d hiOnly) Crash() {}

func (d hiOnly) Save() (restore func()) { return func() {} }

func (d hiOnly) AppendDurable(b []byte) []byte { return machine.AppendUint64(b, uint64(d.w.hi)) }

// TestSelfCheckCatchesUnsoundFingerprint is the negative control for
// the self-check mode: a device whose AppendDurable omits state a crash
// keeps lets dedup prune the only failing subtrees (the crash boundary
// inside both transient windows, which never lies on the DFS spine),
// and SelfCheck must report the verdict change.
func TestSelfCheckCatchesUnsoundFingerprint(t *testing.T) {
	if _, _, err := SelfCheck(convergent(true, newWorld), Options{MaxExecutions: 50000}); err != nil {
		t.Fatalf("honest device flagged: %v", err)
	}
	omits := func(m *machine.Machine) any {
		w := &world{}
		m.RegisterDevice(omitsLo{w})
		return w
	}
	if _, _, err := SelfCheck(convergent(true, omits), Options{MaxExecutions: 50000}); err == nil || !strings.Contains(err.Error(), "verdict changed") {
		t.Fatalf("a device that omits a register half: %v, want a verdict change", err)
	}
}

// TestSelfCheckCatchesUnregisteredState: the same half left out another
// way, as a plain world field that Setup never registers, while the
// other half is a device of its own. SelfCheck must convict it too.
func TestSelfCheckCatchesUnregisteredState(t *testing.T) {
	unregistered := func(m *machine.Machine) any {
		w := &world{}
		m.RegisterDevice(hiOnly{w})
		return w
	}
	if _, _, err := SelfCheck(convergent(true, unregistered), Options{MaxExecutions: 50000}); err == nil || !strings.Contains(err.Error(), "verdict changed") {
		t.Fatalf("a register half no device holds: %v, want a verdict change", err)
	}
}
