package explore

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// StepKind classifies one structured schedule step.
type StepKind int

const (
	// StepThread: a scheduling choice ran one atomic step of a thread.
	StepThread StepKind = iota
	// StepCrash: the scheduler injected a crash, ending the era.
	StepCrash
	// StepChoice: a non-scheduling choice (tag "rand", "fault",
	// "diskfail", ...) was resolved, either by the search or by the
	// scenario's RandPolicy.
	StepChoice
	// StepEra: an era boundary (init, main, recovery, post). Not a
	// machine step; it groups the steps that follow.
	StepEra
)

// TraceStep is one entry of a structured schedule: exactly what the
// checker decided at one choice point, in execution order. A schedule
// is the replayable form of a counterexample — feed Counterexample
// .Choices back through Replay/ReplayCx to re-execute it.
type TraceStep struct {
	Kind StepKind
	// Thread is the thread that stepped (StepThread only).
	Thread machine.TID
	// Tag is the choice tag (StepChoice) or the era label (StepEra).
	Tag string
	// N is the number of options offered; Chosen the option taken.
	// For StepEra both are zero.
	N      int
	Chosen int
}

// String renders one step compactly.
func (s TraceStep) String() string {
	switch s.Kind {
	case StepThread:
		return fmt.Sprintf("run t%d (option %d of %d)", s.Thread, s.Chosen, s.N)
	case StepCrash:
		return fmt.Sprintf("CRASH injected (option %d of %d)", s.Chosen, s.N)
	case StepChoice:
		return fmt.Sprintf("choose %s = %d of %d", s.Tag, s.Chosen, s.N)
	case StepEra:
		return fmt.Sprintf("-- era: %s --", s.Tag)
	default:
		return fmt.Sprintf("step kind %d", int(s.Kind))
	}
}

// Schedule is the full decision sequence of one execution.
type Schedule []TraceStep

// Format renders the schedule step by step, with consecutive
// same-thread steps run-length-compressed so long counterexamples stay
// readable.
func (sc Schedule) Format() string {
	var b strings.Builder
	i := 0
	for i < len(sc) {
		s := sc[i]
		if s.Kind == StepThread {
			j := i
			for j+1 < len(sc) && sc[j+1].Kind == StepThread && sc[j+1].Thread == s.Thread {
				j++
			}
			if j > i {
				fmt.Fprintf(&b, "  run t%d for %d steps\n", s.Thread, j-i+1)
				i = j + 1
				continue
			}
		}
		fmt.Fprintf(&b, "  %s\n", s)
		i++
	}
	return b.String()
}

// Crashes counts the injected crashes in the schedule.
func (sc Schedule) Crashes() int {
	n := 0
	for _, s := range sc {
		if s.Kind == StepCrash {
			n++
		}
	}
	return n
}

// scheduleRecorder sits at the inner-chooser position of runOne's
// chooser chain and doubles as the machine Observer. It records (a) the
// raw choice sequence, aligned with what ScriptChooser replays, and (b)
// — in a traced run only; a searched execution is replayed to get it —
// the structured schedule, including RandPolicy-resolved choices that
// are NOT part of the replayable sequence.
//
// The machine calls Choose("sched") first and reports the meaning of
// the chosen option (Scheduled / CrashInjected) immediately after, so
// the recorder appends a placeholder thread step on "sched" and the
// observer callback fills it in.
type scheduleRecorder struct {
	inner   machine.Chooser
	traced  bool
	choices []int
	steps   Schedule
}

// Choose implements machine.Chooser.
func (r *scheduleRecorder) Choose(n int, tag string) int {
	c := r.inner.Choose(n, tag)
	r.choices = append(r.choices, c)
	if tag == "sched" {
		// Thread identity arrives via the Observer callback.
		r.step(TraceStep{Kind: StepThread, Thread: -1, N: n, Chosen: c})
	} else {
		r.step(TraceStep{Kind: StepChoice, Tag: tag, N: n, Chosen: c})
	}
	return c
}

func (r *scheduleRecorder) step(st TraceStep) {
	if r.traced {
		r.steps = append(r.steps, st)
	}
}

// Scheduled implements machine.Observer.
func (r *scheduleRecorder) Scheduled(tid machine.TID) {
	if last := len(r.steps) - 1; last >= 0 && r.steps[last].Kind == StepThread {
		r.steps[last].Thread = tid
	}
}

// CrashInjected implements machine.Observer.
func (r *scheduleRecorder) CrashInjected() {
	if last := len(r.steps) - 1; last >= 0 && r.steps[last].Kind == StepThread {
		r.steps[last].Kind = StepCrash
	}
}

// policyChoice records a RandPolicy-resolved choice: part of the
// structured schedule, not of the replayable choice sequence (replay
// re-applies the policy itself).
func (r *scheduleRecorder) policyChoice(n, chosen int) {
	r.step(TraceStep{Kind: StepChoice, Tag: "rand(policy)", N: n, Chosen: chosen})
}

// era marks an era boundary in the schedule.
func (r *scheduleRecorder) era(label string) {
	r.step(TraceStep{Kind: StepEra, Tag: label})
}
