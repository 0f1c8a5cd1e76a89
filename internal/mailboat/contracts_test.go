package mailboat

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/history"
	"repro/internal/machine"
	"repro/internal/spec"
)

// The detection, disk-full and buffered contracts were once three
// hand-written audits of the store after the final recovery, over
// deliveries the history did not record. They are spec variants now
// (DetectionSpec, Spec with the latch probe, PrefixSpec), and the audits
// are kept here as reference oracles: a spec that is weaker than the
// audit it replaced would admit a store the audit refused, and
// TestContractsNoWeakerThanAudits looks for one in every execution of
// the contract scenarios and their seeded bugs.

// delivered returns the payloads the history's deliveries carried and
// the ones they were acknowledged for: the ground truth the audits once
// collected outside the history.
func delivered(h history.History) (sent, acked map[string]bool) {
	sent, acked = map[string]bool{}, map[string]bool{}
	for _, e := range h {
		d, ok := e.Op.(OpDeliver)
		switch {
		case ok && e.Kind == history.Invoke:
			sent[d.Msg] = true
		case ok && e.Kind == history.Return && e.Ret == true:
			acked[d.Msg] = true
		}
	}
	return sent, acked
}

// pickupAll picks up every mailbox, unrecorded, and returns the
// payloads present; a pickup serving bytes that were never delivered is
// refused under the property's name.
func pickupAll(t *machine.T, w *World, sent map[string]bool, property string) (map[string]bool, error) {
	present := map[string]bool{}
	var err error
	for u := uint64(0); u < uint64(len(w.MB.locks)); u++ {
		msgs := w.MB.Pickup(t, nil, u)
		w.MB.Unlock(t, nil, u)
		for _, msg := range msgs {
			if !sent[msg.Contents] && err == nil {
				err = fmt.Errorf("%s: pickup served bytes never delivered: %q", property, msg.Contents)
			}
			present[msg.Contents] = true
		}
	}
	return present, err
}

// postDetect is Detection's audit. With a single backend there is no
// redundant copy to heal from: corruption may destroy an acknowledged
// message, but never silently. Every byte sequence a pickup serves must
// have been delivered, and an acknowledged message may only be missing
// if the integrity layer's detection counter moved.
func postDetect(t *machine.T, w *World, h history.History) error {
	sent, acked := delivered(h)
	present, err := pickupAll(t, w, sent, "integrity")
	if err != nil {
		return err
	}
	for msg := range acked {
		if !present[msg] && w.Stack.Detected() == 0 {
			return fmt.Errorf("silent loss: acked delivery %q missing with no integrity detection", msg)
		}
	}
	return nil
}

// postNoSpace is Exhaustion's audit: no acked loss and no fabrication
// after the final recovery. The rest of it — writability tracks the
// disk-full latch — is probeLatch's two assertions and refusedProbe.
func postNoSpace(t *machine.T, w *World, h history.History) error {
	sent, acked := delivered(h)
	present, err := pickupAll(t, w, sent, "nospace")
	if err != nil {
		return err
	}
	for msg := range acked {
		if !present[msg] {
			return fmt.Errorf("acked loss: delivery %q acknowledged but missing after disk-full", msg)
		}
	}
	return nil
}

// refusedProbe is the audit's last check, run after probeLatch: a probe
// delivery the store refused must not appear in the mailbox anyway.
func refusedProbe(t *machine.T, w *World, h history.History) error {
	for _, e := range h {
		if d, ok := e.Op.(OpDeliver); !ok || d.Msg != "probe" || e.Kind != history.Return || e.Ret != false {
			continue
		}
		msgs := w.MB.Pickup(t, nil, 0)
		w.MB.Unlock(t, nil, 0)
		for _, m := range msgs {
			if m.Contents == "probe" {
				return fmt.Errorf("nospace: refused probe delivery appeared in the mailbox anyway")
			}
		}
	}
	return nil
}

// postPrefix is Prefix's audit over deliveries issued one after another
// in the given order: the surviving messages must be a no-holes prefix
// of it, where a hole below the newest survivor is acceptable only if a
// torn (empty) survivor accounts for it. Messages are one append, so a
// torn body is exactly empty.
func postPrefix(t *machine.T, w *World, order []OpDeliver) error {
	index := map[string]int{}
	for i, d := range order {
		index[d.Msg] = i
	}
	empties, maxIdx := 0, -1
	seen := map[int]bool{}
	for u := uint64(0); u < uint64(len(w.MB.locks)); u++ {
		msgs := w.MB.Pickup(t, nil, u)
		w.MB.Unlock(t, nil, u)
		for _, m := range msgs {
			if m.Contents == "" {
				empties++
				continue
			}
			i, ok := index[m.Contents]
			if !ok {
				return fmt.Errorf("prefix contract: pickup served bytes never delivered: %q", m.Contents)
			}
			if seen[i] {
				return fmt.Errorf("prefix contract: message %q delivered once but present twice", m.Contents)
			}
			seen[i] = true
			maxIdx = max(maxIdx, i)
		}
	}
	holes := 0
	for i := 0; i < maxIdx; i++ {
		if !seen[i] {
			holes++
		}
	}
	if holes > empties {
		return fmt.Errorf("prefix contract: %d holes below surviving index %d with only %d torn survivors to account for them", holes, maxIdx, empties)
	}
	return nil
}

// anyHistory accepts every history (each step is undefined), so a search
// under it runs past refinement failures: the differential harness
// judges each execution itself.
type anyHistory struct{}

func (anyHistory) Name() string                                            { return "any" }
func (anyHistory) Init() spec.State                                        { return nil }
func (anyHistory) Step(spec.State, spec.Op, spec.Ret) ([]spec.State, bool) { return nil, true }
func (anyHistory) Crash(s spec.State) []spec.State                         { return []spec.State{s} }
func (anyHistory) Key(spec.State) string                                   { return "" }

// verdicts counts one differential run's executions by verdict.
type verdicts struct{ executions, oracleRefused, checkRefused, weaker int }

// oracle is an old audit, or one part of it.
type oracle func(*machine.T, *World, history.History) error

// differential runs s with its oracles beside the refinement check and
// counts the executions each refuses. before reads the store where the
// old audit did, after the final recovery; after, when set, runs once
// the recorded post-pickups and the latch probe have. A machine
// violation (a model assertion, a failed probe) ends the search as it
// ends the suite's.
func differential(s *explore.Scenario, max int, before, after oracle) (verdicts, *explore.Report) {
	var v verdicts
	sp, post := s.Spec, s.Post
	d := *s
	d.Spec = anyHistory{}
	d.Post = func(t *machine.T, wAny any, h *explore.Harness) {
		w := wAny.(*World)
		err := before(t, w, h.History())
		post(t, wAny, h)
		if after != nil && err == nil {
			err = after(t, w, h.History())
		}
		refused := !history.Check(sp, h.History()).OK
		v.executions++
		if err != nil {
			v.oracleRefused++
		}
		if refused {
			v.checkRefused++
		}
		if err != nil && !refused {
			v.weaker++
			t.Failf("weaker than the audit: the oracle refused (%v) and the spec accepted:\n%s", err, h.History().Format())
		}
	}
	rep := explore.Run(&d, explore.Options{MaxExecutions: max})
	return v, rep
}

// TestContractsNoWeakerThanAudits: no execution of a contract scenario
// or of a seeded bug aimed at it is refused by the audit the contract
// replaced and accepted by the refinement check. The rows take the
// suite's entries' options; the Prefix rows take the audit's shape,
// deliveries one after another on the main thread (recorded now), since
// the audit needs an issue order.
func TestContractsNoWeakerThanAudits(t *testing.T) {
	oneCorrupt := ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "the quick brown fox."}},
		MaxCrashes:  1,
		PostPickups: true,
		Checksum:    true,
		Faults:      oneCorruption,
		Property:    Detection,
	}
	diskFull := func(delivers []OpDeliver, crashes int) ScenarioOptions {
		return ScenarioOptions{
			Config:      Config{Users: 1, RandBound: 3},
			Delivers:    delivers,
			MaxCrashes:  crashes,
			PostPickups: true,
			Faults:      oneDiskFull,
			Property:    Exhaustion,
		}
	}
	prefix := ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 4},
		Delivers:    []OpDeliver{{User: 0, Msg: "first"}, {User: 0, Msg: "second"}, {User: 0, Msg: "third"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Writeback,
		Property:    Prefix,
	}
	inOrder := func(t *machine.T, w *World, _ history.History) error { return postPrefix(t, w, prefix.Delivers) }
	one, two := []OpDeliver{{User: 0, Msg: "a"}}, []OpDeliver{{User: 0, Msg: "a"}, {User: 0, Msg: "b"}}
	rows := []struct {
		name          string
		v             Variant
		o             ScenarioOptions
		max           int
		bug           bool
		before, after oracle
	}{
		{"mb/corrupt+scrub", VariantVerified, oneCorrupt, 20000, false, postDetect, nil},
		{"mb/integrity-bug:trust-read", VariantTrustReads, oneCorrupt, 20000, true, postDetect, nil},
		{"mb/nospace+gc-reclaims", VariantVerified, diskFull(one, 2), 20000, false, postNoSpace, refusedProbe},
		{"mb/nospace-bug:ack-after-enospc", VariantDeliverAckOnNoSpace, diskFull(one, 1), 20000, true, postNoSpace, refusedProbe},
		// The model's link assertion convicts this bug mid-run, before
		// any read after recovery: no execution reaches the oracle with
		// something to refuse, so the row is not held to a live oracle.
		{"mb/nospace-bug:gc-eats-live-spool", VariantDeliverGreedySpoolGC, diskFull(two, 0), 40000, false, postNoSpace, refusedProbe},
		{"mb/writeback+prefix-contract", VariantVerified, prefix, 20000, false, inOrder, nil},
		{"mb/prefix-bug:recover-drops-torn", VariantRecoverDropsTorn, prefix, 20000, true, inOrder, nil},
	}
	for _, r := range rows {
		t.Run(strings.TrimPrefix(r.name, "mb/"), func(t *testing.T) {
			s := Scenario(r.name, r.v, r.o)
			if r.o.Property == Prefix {
				s.Main = func(t *machine.T, wAny any, h *explore.Harness) {
					for _, d := range r.o.Delivers {
						RecordDeliver(t, h, wAny.(*World), d)
					}
				}
			}
			v, rep := differential(s, r.max, r.before, r.after)
			t.Logf("%d executions (%s): the audit refused %d, the spec %d, the audit alone %d", v.executions, rep, v.oracleRefused, v.checkRefused, v.weaker)
			if v.weaker != 0 {
				t.Fatalf("the spec is weaker than the audit:\n%s", rep.Counterexample.Format())
			}
			if !rep.OK() && !strings.Contains(rep.Counterexample.Reason, "fs.link source") {
				t.Fatalf("search ended on %s", rep.Counterexample.Reason)
			}
			if r.bug && v.oracleRefused == 0 {
				t.Errorf("the audit refused no execution of a seeded bug: the oracle is dead")
			}
		})
	}
}
