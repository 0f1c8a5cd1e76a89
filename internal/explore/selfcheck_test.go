package explore

import (
	"fmt"
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
		{"clean", func() *Scenario { return fingerprinted(true, true) }, false},
		{"buggy", func() *Scenario {
			s := fingerprinted(true, true)
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

// TestSelfCheckCatchesUnsoundFingerprint is the negative control for
// the self-check mode: a fingerprint hook that omits crash-surviving
// state lets dedup prune the only failing subtrees (the crash boundary
// inside both transient windows, which never lies on the DFS spine),
// and SelfCheck must report the verdict change.
func TestSelfCheckCatchesUnsoundFingerprint(t *testing.T) {
	if _, _, err := SelfCheck(convergent(true, true), Options{MaxExecutions: 50000}); err != nil {
		t.Fatalf("honest fingerprint flagged: %v", err)
	}
	if _, _, err := SelfCheck(convergent(true, false), Options{MaxExecutions: 50000}); err == nil {
		t.Fatal("unsound fingerprint not caught by the self-check")
	}
}
