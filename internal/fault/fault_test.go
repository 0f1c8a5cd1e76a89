package fault

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/loc"
	"repro/internal/machine"
)

// TestFaultClassesMatchDesignDoc pins DESIGN.md's class table to the
// vocabulary: one row per class, in Class order, carrying its name,
// axis, chooser tag and opt-in verbatim, and no row besides. The
// decision-point column is prose about the layers; the row must have
// one.
func TestFaultClassesMatchDesignDoc(t *testing.T) {
	_, rows := loc.DocTable(t, "DESIGN.md", "fault-classes")
	if len(rows) != int(NumClasses) {
		t.Fatalf("DESIGN.md lists %d classes, the vocabulary has %d", len(rows), NumClasses)
	}
	for c := range NumClasses {
		optIn := map[bool]string{false: "no", true: "yes"}[c.OptIn()]
		name, tag := "`"+c.String()+"`", "`"+c.Tag()+"`"
		if r := rows[c]; len(r) != 5 || r[0] != name || r[1] != c.Axis().String() ||
			!strings.HasPrefix(r[2], tag) || r[3] != optIn || r[4] == "" {
			t.Errorf("row %d is %q, want %s | %s | %s… | %s | <decision point>", c, r, name, c.Axis(), tag, optIn)
		}
	}
}

// TestChooserOptInAndBudget: a nil Eligible set branches on the
// transient storage classes only — every opt-in class, the network's
// included, must be listed — and one Chooser's budget is spent across
// classes and axes alike, and recorded as one count.
func TestChooserOptInAndBudget(t *testing.T) {
	var tags []string
	always := machine.ChooserFunc(func(n int, tag string) int {
		if tag != "sched" {
			tags = append(tags, tag)
		}
		return n - 1
	})
	run := func(p *Chooser) (injected []Class) {
		m := machine.New(machine.Options{})
		m.RunEra(always, false, func(mt *machine.T) {
			for c := range NumClasses {
				if p.Decide(mt, c, 0) {
					injected = append(injected, c)
				}
			}
		})
		return injected
	}
	got := run(&Chooser{Budget: int(NumClasses)})
	if want := []Class{Create, Append, ReadShort, Sync, Delete, Link}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("nil Eligible injected %v, want %v", got, want)
	}
	tags = nil
	p := &Chooser{Budget: 2, Eligible: Classes(FailStop, Reorder, Corrupt)}
	if got := run(p); fmt.Sprint(got) != fmt.Sprint([]Class{Corrupt, FailStop}) {
		t.Errorf("budget 2 over corrupt, fail-stop, reorder injected %v", got)
	}
	if fmt.Sprint(tags) != "[corrupt failstop]" {
		t.Errorf("chooser saw tags %v: a spent budget must consume no choice", tags)
	}
	spent := (&Chooser{Budget: 2, Eligible: Classes(FailStop, Reorder, Corrupt)}).AppendDurable(nil)
	if string(p.AppendDurable(nil)) == string(spent) {
		t.Error("AppendDurable does not see the spent budget")
	}
	// Decisions read the total alone, so a budget spent on other classes
	// is the same Chooser state.
	q := &Chooser{Budget: 2, Eligible: Classes(Create, Append)}
	if got := run(q); fmt.Sprint(got) != fmt.Sprint([]Class{Create, Append}) {
		t.Errorf("budget 2 over create, append injected %v", got)
	}
	if string(q.AppendDurable(nil)) != string(p.AppendDurable(nil)) {
		t.Error("AppendDurable tells apart two budgets spent on different classes")
	}
	if (&Chooser{Budget: 1}).Decide(nativeT{}, Create, 0) {
		t.Error("a Chooser injected on a native thread")
	}
}

type nativeT struct{}

func (nativeT) RandUint64(uint64) uint64 { return 0 }

// TestLogCountsDecidesRecords: Decide hands out per-class indices
// whether or not the policy injects, Record and Force log events with
// them, and Reset clears everything.
func TestLogCountsDecidesRecords(t *testing.T) {
	var l Log
	for i := range 3 {
		if idx, inject := l.Decide(nativeT{}, Always{Ops: Classes(Drop)}, Drop); idx != uint64(i) || !inject {
			t.Fatalf("decision %d: index %d, inject %v", i, idx, inject)
		}
	}
	if _, inject := l.Decide(nativeT{}, Never{}, Sync); inject {
		t.Fatal("Never injected")
	}
	l.Record(Drop, 2, "call to node 1")
	l.Force(FailStop, "drill")
	calls, faults := l.Counters()
	if calls[Drop] != 3 || calls[Sync] != 1 || faults[Drop] != 1 || faults[FailStop] != 1 {
		t.Fatalf("counters: calls %v faults %v", calls, faults)
	}
	if got := fmt.Sprint(l.Events()); got != "[drop#2 call to node 1 fail-stop#0 drill]" {
		t.Fatalf("events: %s", got)
	}
	l.Reset()
	if calls, faults := l.Counters(); calls != [NumClasses]uint64{} || faults != [NumClasses]uint64{} || len(l.Events()) != 0 {
		t.Fatal("Reset left state behind")
	}
}
