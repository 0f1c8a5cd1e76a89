package mailboat

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/gfs"
)

// The fault budgets the mirror and integrity tests spend.
var (
	oneFailStop   = Faults{Budget: 1, Ops: fault.Classes(fault.FailStop)}
	oneCorruption = Faults{Budget: 1, Ops: fault.Classes(fault.Corrupt)}
	oneDiskFull   = Faults{Budget: 1, Ops: fault.Classes(fault.NoSpace)}
)

// TestScenarioRefusesIgnoredOptions: a scenario whose parts do not
// compose panics at construction. What is refused because of the layers
// is refused in gfs.StackSpec.Validate's words, verbatim; the two rules
// of ScenarioOptions.check are a property asking for ground truth the
// other parts cannot give it. (A budget a mirror or an envelope would
// have overridden, and two properties at once, can no longer be
// written down.)
func TestScenarioRefusesIgnoredOptions(t *testing.T) {
	validate := func(spec gfs.StackSpec, replicas int, deferred bool) string {
		return spec.Validate(replicas, deferred).Error()
	}
	cases := []struct {
		name string
		o    ScenarioOptions
		want string
	}{
		{"Mirror+FaultBudget", ScenarioOptions{Mirror: true, Faults: oneDiskFull}, validate(gfs.StackSpec{Policy: oneDiskFull.Policy()}, 2, false)},
		{"Mirror+BufferedFS", ScenarioOptions{Mirror: true, Crash: Buffered}, validate(gfs.StackSpec{}, 2, true)},
		{"Mirror+Writeback", ScenarioOptions{Mirror: true, Crash: Writeback, Faults: oneFailStop}, validate(gfs.StackSpec{}, 2, true)},
		{"Corrupt+BufferedFS", ScenarioOptions{Checksum: true, Crash: Buffered, Faults: oneCorruption}, validate(gfs.StackSpec{Checksum: true}, 1, true)},
		{"Corrupt+Writeback", ScenarioOptions{Checksum: true, Crash: Writeback}, validate(gfs.StackSpec{Checksum: true}, 1, true)},
		{"Prefix alone", ScenarioOptions{Property: Prefix}, "Prefix needs the Writeback crash model"},
		{"Exhaustion alone", ScenarioOptions{Property: Exhaustion}, "Exhaustion needs a fault budget"},
		{"Detection unread", ScenarioOptions{Checksum: true, Faults: oneCorruption, Property: Detection}, "a durability contract needs PostPickups"},
		{"Detection, two observers", ScenarioOptions{Config: Config{Users: 2, RandBound: 2}, Delivers: []OpDeliver{{User: 0, Msg: "a"}},
			PickupUsers: []uint64{0, 1}, PostPickups: true, Checksum: true, Faults: oneCorruption, Property: Detection},
			"Detection observes one pickup session at a time"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.o.Config.Users == 0 {
				c.o.Config = Config{Users: 1, RandBound: 2}
			}
			defer func() {
				r, _ := recover().(string)
				if !strings.Contains(r, c.want) || !strings.Contains(r, "mailboat.Scenario refused") {
					t.Fatalf("panic %q, want one naming the scenario and containing %q", r, c.want)
				}
			}()
			Scenario("refused", VariantVerified, c.o)
			t.Fatal("accepted")
		})
	}
}

// TestWritebackNoSpaceExhaustive pins the cross-axis worlds the one
// constructor makes plain configuration: the disk-full latch (and a
// failed fsync beside it) on the writeback and buffered crash models,
// under the full sync discipline. Each search is clean and exhaustive
// well inside the default budget on one worker (186 and 666 executions
// for the first two, the recorded post-pickup and the probe included).
func TestWritebackNoSpaceExhaustive(t *testing.T) {
	cases := []struct {
		name string
		o    ScenarioOptions
	}{
		{"writeback+nospace/1-crash", ScenarioOptions{Crash: Writeback, MaxCrashes: 1, Faults: oneDiskFull}},
		{"writeback+nospace/2-crashes", ScenarioOptions{Crash: Writeback, MaxCrashes: 2, Faults: oneDiskFull}},
		{"writeback+nospace+sync", ScenarioOptions{Crash: Writeback, MaxCrashes: 1, Faults: Faults{Budget: 2, Ops: fault.Classes(fault.NoSpace, fault.Sync)}}},
		{"buffered+nospace", ScenarioOptions{Crash: Buffered, MaxCrashes: 2, Faults: oneDiskFull}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.o.Config = Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true}
			c.o.Delivers = []OpDeliver{{User: 0, Msg: "a"}}
			c.o.PostPickups = true
			c.o.Property = Exhaustion
			rep := explore.Run(Scenario("mb-"+c.name, VariantVerified, c.o), explore.Options{MaxExecutions: 20000})
			t.Logf("report: %s", rep)
			if !rep.OK() {
				t.Fatalf("exhaustion contract violated:\n%s", rep.Counterexample.Format())
			}
			if !rep.Complete || rep.CrashedExecutions == 0 {
				t.Errorf("complete=%v, %d crashed executions: want an exhaustive search with crashes", rep.Complete, rep.CrashedExecutions)
			}
		})
	}
}
