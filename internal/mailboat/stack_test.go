package mailboat

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
)

// TestScenarioRefusesIgnoredOptions: every combination Scenario used to
// accept and silently ignore (the Mirror branch returned before
// FaultBudget, BufferedFS or Writeback were read; Corrupt overrode
// FaultBudget; PrefixContract meant nothing off the writeback model)
// now panics at construction, with gfs.StackSpec.Validate's message
// where the layers are what does not compose.
func TestScenarioRefusesIgnoredOptions(t *testing.T) {
	cases := []struct {
		name string
		o    ScenarioOptions
		want string
	}{
		{"Mirror+FaultBudget", ScenarioOptions{Mirror: true, FaultBudget: 1, FaultOps: []gfs.FaultOp{gfs.FaultNoSpace}}, "FaultBudget would be ignored"},
		{"Mirror+BufferedFS", ScenarioOptions{Mirror: true, BufferedFS: true}, "Mirrored and a deferred-durability Model"},
		{"Mirror+Writeback", ScenarioOptions{Mirror: true, Writeback: true}, "Mirrored and a deferred-durability Model"},
		{"Corrupt+FaultBudget", ScenarioOptions{Corrupt: true, FaultBudget: 1}, "FaultBudget would be ignored"},
		{"Corrupt+BufferedFS", ScenarioOptions{Corrupt: true, BufferedFS: true}, "Checksummed and a deferred-durability Model"},
		{"Corrupt+Writeback", ScenarioOptions{Corrupt: true, Writeback: true}, "Checksummed and a deferred-durability Model"},
		{"PrefixContract alone", ScenarioOptions{PrefixContract: true}, "PrefixContract requires Writeback"},
		{"NoSpaceGC alone", ScenarioOptions{NoSpaceGC: true}, "NoSpaceGC requires FaultBudget"},
		{"NoSpaceGC+PrefixContract", ScenarioOptions{NoSpaceGC: true, FaultBudget: 1, Writeback: true, PrefixContract: true}, "each replace"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.o.Config = Config{Users: 1, RandBound: 2}
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
// well inside the default budget on one worker (186 and 660 executions
// for the first two, as on a scratch wiring of the parent commit).
func TestWritebackNoSpaceExhaustive(t *testing.T) {
	cases := []struct {
		name string
		o    ScenarioOptions
	}{
		{"writeback+nospace/1-crash", ScenarioOptions{Writeback: true, MaxCrashes: 1, FaultBudget: 1, FaultOps: []gfs.FaultOp{gfs.FaultNoSpace}}},
		{"writeback+nospace/2-crashes", ScenarioOptions{Writeback: true, MaxCrashes: 2, FaultBudget: 1, FaultOps: []gfs.FaultOp{gfs.FaultNoSpace}}},
		{"writeback+nospace+sync", ScenarioOptions{Writeback: true, MaxCrashes: 1, FaultBudget: 2, FaultOps: []gfs.FaultOp{gfs.FaultNoSpace, gfs.FaultSync}}},
		{"buffered+nospace", ScenarioOptions{BufferedFS: true, MaxCrashes: 2, FaultBudget: 1, FaultOps: []gfs.FaultOp{gfs.FaultNoSpace}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.o.Config = Config{Users: 1, RandBound: 2, SyncOnDeliver: true, SyncDirs: true}
			c.o.Delivers = []OpDeliver{{User: 0, Msg: "a"}}
			c.o.NoSpaceGC = true
			rep := explore.Run(Scenario("mb-"+c.name, VariantVerified, c.o), explore.Options{MaxExecutions: 20000, Workers: 1})
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
