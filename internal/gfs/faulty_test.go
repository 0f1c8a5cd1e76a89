package gfs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// faultScript is a fixed, fault-tolerant workload exercising every
// faultable operation class. It checks each result before depending on
// it, so it runs to completion under any fault schedule; with a
// deterministic policy its per-class call indices — and therefore the
// fault log — are a pure function of the policy.
func faultScript(sys System, th T) {
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		if fd, ok := sys.Create(th, "spool", name); ok {
			sys.Append(th, fd, []byte("payload-"+name))
			sys.Append(th, fd, []byte("-more"))
			sys.Sync(th, fd)
			sys.Close(th, fd)
			sys.Link(th, "spool", name, "box", name)
			sys.Delete(th, "spool", name)
		}
		if rfd, ok := sys.Open(th, "box", name); ok {
			sys.ReadAt(th, rfd, 0, 64)
			sys.Size(th, rfd)
			sys.Close(th, rfd)
		}
	}
	sys.List(th, "box")
}

var faultScriptDirs = []string{"spool", "box"}

// TestSeededFaultsReproducible is the ISSUE's headline acceptance
// criterion for the fault layer: the same seed must reproduce the same
// fault schedule bit-for-bit. Two independent runs over fresh OS
// backends must produce identical logs and counters; nearby seeds must
// produce a different schedule (otherwise the seed would be dead).
func TestSeededFaultsReproducible(t *testing.T) {
	run := func(seed int64) ([]fault.Event, [fault.NumClasses]uint64, [fault.NumClasses]uint64) {
		o := newOSFS(t, faultScriptDirs)
		f := NewFaulty(o, &SeededPolicy{Seed: seed, Rates: UniformRates(2)})
		faultScript(f, NewNative(1))
		calls, faults := f.Counters()
		return f.Log(), calls, faults
	}

	log1, calls1, faults1 := run(42)
	log2, calls2, faults2 := run(42)
	if len(log1) == 0 {
		t.Fatal("no faults injected at rate 1-in-2; seed is dead")
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("same seed, different fault logs:\n%v\nvs\n%v", log1, log2)
	}
	if calls1 != calls2 || faults1 != faults2 {
		t.Fatalf("same seed, different counters: %v/%v vs %v/%v", calls1, faults1, calls2, faults2)
	}

	distinct := false
	for seed := int64(1); seed <= 8 && !distinct; seed++ {
		other, _, _ := run(seed)
		distinct = !reflect.DeepEqual(log1, other)
	}
	if !distinct {
		t.Fatal("eight different seeds all reproduced seed 42's schedule")
	}
}

// TestSeededFaultsSameLogOnBothBackends runs the identical script with
// the identical seed over the model and the OS backend: the fault log
// must match event-for-event, because fault decisions depend only on
// (seed, class, per-class index) — never on which backend is underneath.
func TestSeededFaultsSameLogOnBothBackends(t *testing.T) {
	pol := func() *SeededPolicy { return &SeededPolicy{Seed: 7, Rates: UniformRates(2)} }

	o := newOSFS(t, faultScriptDirs)
	fo := NewFaulty(o, pol())
	faultScript(fo, NewNative(1))

	mm := machine.New(machine.Options{MaxSteps: 10000})
	mfs := NewModel(mm, faultScriptDirs)
	fm := NewFaulty(mfs, pol())
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		faultScript(fm, mt)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("model run: %+v", res)
	}

	if !reflect.DeepEqual(fo.Log(), fm.Log()) {
		t.Fatalf("backends diverge under the same seed:\nos:    %v\nmodel: %v", fo.Log(), fm.Log())
	}
}

// TestFaultsHaveNoEffect pins the fault semantics: a faulted operation
// fails as if the syscall returned an error with no effect — except
// short reads, which truncate (but never to zero bytes, since zero
// means end-of-file).
func TestFaultsHaveNoEffect(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 10000})
	fs := NewModel(mm, []string{"d", "e"})
	f := NewFaulty(fs, fault.Always{})
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		// Faulted create: reports failure, creates nothing.
		if _, ok := f.Create(mt, "d", "x"); ok {
			mt.Failf("faulted create reported success")
		}
		if len(fs.PeekDir("d")) != 0 {
			mt.Failf("faulted create left an entry behind")
		}

		// Real file set up through the inner backend.
		fd, ok := fs.Create(mt, "d", "x")
		if !ok {
			mt.Failf("inner create failed")
		}
		fs.Append(mt, fd, []byte("abcd"))

		// Faulted append: no data written.
		if f.Append(mt, fd, []byte("MORE")) {
			mt.Failf("faulted append reported success")
		}
		// Faulted sync: reported, contents untouched.
		if f.Sync(mt, fd) {
			mt.Failf("faulted sync reported success")
		}
		fs.Close(mt, fd)

		// Faulted link: no new entry.
		if f.Link(mt, "d", "x", "e", "y") {
			mt.Failf("faulted link reported success")
		}
		if len(fs.PeekDir("e")) != 0 {
			mt.Failf("faulted link created an entry")
		}
		// Faulted delete: entry remains.
		if f.Delete(mt, "d", "x") {
			mt.Failf("faulted delete reported success")
		}

		// Short read: truncated to half, never to zero; file intact.
		rfd, _ := fs.Open(mt, "d", "x")
		if got := string(f.ReadAt(mt, rfd, 0, 64)); got != "ab" {
			mt.Failf("short read returned %q, want %q", got, "ab")
		}
		if got := string(fs.ReadAt(mt, rfd, 0, 64)); got != "abcd" {
			mt.Failf("file corrupted after short read: %q", got)
		}
		fs.Close(mt, rfd)

		if d := fs.PeekDir("d"); len(d) != 1 || string(d["x"]) != "abcd" {
			mt.Failf("final state wrong: %v", d)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if n := fs.OpenFDs(); n != 0 {
		t.Fatalf("%d fds leaked", n)
	}

	calls, faults := f.Counters()
	for _, op := range []fault.Class{fault.Create, fault.Append, fault.Sync, fault.Link, fault.Delete, fault.ReadShort} {
		if calls[op] == 0 || faults[op] != calls[op] {
			t.Errorf("%v: calls=%d faults=%d, want all faulted", op, calls[op], faults[op])
		}
	}
	if len(f.Log()) == 0 {
		t.Error("empty fault log")
	}
	f.ResetLog()
	if calls, faults := f.Counters(); calls != [fault.NumClasses]uint64{} || faults != [fault.NumClasses]uint64{} || len(f.Log()) != 0 {
		t.Error("ResetLog did not clear state")
	}
}

// TestNeverPolicyIsTransparent checks the differential property:
// Faulty(fault.Never) is observably identical to the bare backend.
func TestNeverPolicyIsTransparent(t *testing.T) {
	bare := newOSFS(t, faultScriptDirs)
	faultScript(bare, NewNative(1))

	wrappedInner := newOSFS(t, faultScriptDirs)
	wrapped := NewFaulty(wrappedInner, fault.Never{})
	faultScript(wrapped, NewNative(1))

	th := NewNative(2)
	names := bare.List(th, "box")
	if !reflect.DeepEqual(names, wrapped.List(th, "box")) {
		t.Fatalf("listings differ: %v vs %v", names, wrapped.List(th, "box"))
	}
	if len(names) == 0 {
		t.Fatal("script delivered nothing")
	}
	for _, name := range names {
		bfd, ok1 := bare.Open(th, "box", name)
		wfd, ok2 := wrapped.Open(th, "box", name)
		if !ok1 || !ok2 {
			t.Fatalf("open %s: %v vs %v", name, ok1, ok2)
		}
		b := bare.ReadAt(th, bfd, 0, 256)
		w := wrapped.ReadAt(th, wfd, 0, 256)
		bare.Close(th, bfd)
		wrapped.Close(th, wfd)
		if string(b) != string(w) {
			t.Fatalf("%s: contents differ: %q vs %q", name, b, w)
		}
	}

	if _, faults := wrapped.Counters(); faults != [fault.NumClasses]uint64{} {
		t.Fatalf("fault.Never injected faults: %v", faults)
	}
	if calls, _ := wrapped.Counters(); calls[fault.Create] == 0 {
		t.Fatal("counters not recording calls")
	}
	if len(wrapped.Log()) != 0 {
		t.Fatal("fault.Never produced a fault log")
	}
	if wrapped.Inner() != System(wrappedInner) {
		t.Fatal("Inner() does not return the wrapped backend")
	}
}

// TestChooserPolicyInertOnNativeThreads: chooser-driven fault decisions
// only exist under the model; on a real goroutine the policy must never
// fault (there is no chooser to consult).
func TestChooserPolicyInertOnNativeThreads(t *testing.T) {
	o := newOSFS(t, faultScriptDirs)
	f := NewFaulty(o, &fault.Chooser{Budget: 100})
	faultScript(f, NewNative(1))
	if _, faults := f.Counters(); faults != [fault.NumClasses]uint64{} {
		t.Fatalf("fault.Chooser faulted on a native thread: %v", faults)
	}
	if got := f.List(NewNative(2), "box"); len(got) != 6 {
		t.Fatalf("expected 6 delivered files, got %v", got)
	}
}

// TestFailStopLatchAndRevive pins the permanent-death semantics: once
// the policy injects fault.FailStop, every operation class fails without
// reaching the inner backend (reads, listings and stats included), the
// log records exactly one fail-stop event no matter how many dead
// operations follow, and Revive restores the (possibly stale) inner
// state untouched.
func TestFailStopLatchAndRevive(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 10000})
	fs := NewModel(mm, []string{"d"})
	// Rate 1 kills at the first decision point; MaxFaults bounds it to
	// one death so post-Revive operations stay alive.
	var rates [fault.NumClasses]uint64
	rates[fault.FailStop] = 1
	f := NewFaulty(fs, &SeededPolicy{Seed: 1, Rates: rates, MaxFaults: 1})

	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		// Pre-seed real state through the inner backend.
		fd, ok := fs.Create(mt, "d", "x")
		if !ok {
			mt.Failf("inner create failed")
		}
		fs.Append(mt, fd, []byte("abcd"))
		fs.Close(mt, fd)

		// First wrapped operation dies; everything after fails dead.
		if _, ok := f.Create(mt, "d", "y"); ok {
			mt.Failf("create succeeded at the point of death")
		}
		if !f.FailStopped() {
			mt.Failf("latch not set after injection")
		}
		if _, ok := f.Open(mt, "d", "x"); ok {
			mt.Failf("open succeeded on a dead backend")
		}
		if f.List(mt, "d") != nil {
			mt.Failf("list returned entries on a dead backend")
		}
		if f.Link(mt, "d", "x", "d", "z") || f.Delete(mt, "d", "x") {
			mt.Failf("mutation succeeded on a dead backend")
		}
		rfd, _ := fs.Open(mt, "d", "x")
		if f.ReadAt(mt, rfd, 0, 64) != nil {
			mt.Failf("read returned data on a dead backend")
		}
		if f.Size(mt, rfd) != 0 {
			mt.Failf("size nonzero on a dead backend")
		}
		fs.Close(mt, rfd)

		// Inner state is untouched by the dead operations.
		if d := fs.PeekDir("d"); len(d) != 1 || string(d["x"]) != "abcd" {
			mt.Failf("dead operations touched inner state: %v", d)
		}

		// Revive: the stale inner state is reachable again.
		f.Revive()
		if f.FailStopped() {
			mt.Failf("latch survived Revive")
		}
		if names := f.List(mt, "d"); len(names) != 1 || names[0] != "x" {
			mt.Failf("post-revive list: %v", names)
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}

	_, faults := f.Counters()
	if faults[fault.FailStop] != 1 {
		t.Fatalf("fail-stop injected %d times, want exactly 1", faults[fault.FailStop])
	}
	var events int
	for _, e := range f.Log() {
		if e.Class == fault.FailStop {
			events++
		}
	}
	if events != 1 {
		t.Fatalf("%d fail-stop log events, want exactly 1 (dead operations must not spam the log)", events)
	}
}

// TestSeededFailStopReproducible extends the seeded-replay parity
// guarantee to the permanent class: with fail-stop in the rate table,
// the same seed must reproduce the same point of death — and everything
// before it — bit-for-bit across runs.
func TestSeededFailStopReproducible(t *testing.T) {
	run := func(seed int64) ([]fault.Event, [fault.NumClasses]uint64, [fault.NumClasses]uint64) {
		o := newOSFS(t, faultScriptDirs)
		rates := UniformRates(3)
		rates[fault.FailStop] = 20
		f := NewFaulty(o, &SeededPolicy{Seed: seed, Rates: rates})
		faultScript(f, NewNative(1))
		calls, faults := f.Counters()
		return f.Log(), calls, faults
	}

	var killed bool
	for seed := int64(1); seed <= 32 && !killed; seed++ {
		log1, calls1, faults1 := run(seed)
		log2, calls2, faults2 := run(seed)
		if !reflect.DeepEqual(log1, log2) || calls1 != calls2 || faults1 != faults2 {
			t.Fatalf("seed %d: schedules diverge:\n%v\nvs\n%v", seed, log1, log2)
		}
		killed = faults1[fault.FailStop] == 1
	}
	if !killed {
		t.Fatal("no seed in 1..32 injected a fail-stop at rate 1-in-20; rate table is dead")
	}
}

// TestFailStopNowKillSwitch: the operational kill switch latches
// immediately regardless of policy, logs one event, and is idempotent.
func TestFailStopNowKillSwitch(t *testing.T) {
	o := newOSFS(t, faultScriptDirs)
	f := NewFaulty(o, fault.Never{})
	th := NewNative(1)

	if fd, ok := f.Create(th, "spool", "a"); !ok {
		t.Fatal("create failed before the kill switch")
	} else {
		f.Close(th, fd)
	}
	f.FailStopNow("drill")
	f.FailStopNow("drill again")
	if !f.FailStopped() {
		t.Fatal("kill switch did not latch")
	}
	if _, ok := f.Open(th, "spool", "a"); ok {
		t.Fatal("open succeeded after the kill switch")
	}
	_, faults := f.Counters()
	if faults[fault.FailStop] != 1 {
		t.Fatalf("idempotent kill switch recorded %d faults, want 1", faults[fault.FailStop])
	}
	f.Revive()
	if names := f.List(th, "spool"); len(names) != 1 {
		t.Fatalf("post-revive list: %v", names)
	}
}

// TestChooserPolicyFailStopOptIn: with a nil Eligible set the chooser
// policy must never branch on (let alone inject) permanent death, even
// when the chooser would take every fault branch offered; with
// fault.FailStop explicitly eligible, the "failstop" tag branches and
// a budget of one bounds it to one death.
func TestChooserPolicyFailStopOptIn(t *testing.T) {
	greedy := machine.ChooserFunc(func(n int, tag string) int { return n - 1 })

	// Nil Eligible: fail-stop never offered. The workload still faults
	// transiently everywhere (greedy chooser), so finish a full script.
	mm := machine.New(machine.Options{MaxSteps: 100000})
	fs := NewModel(mm, faultScriptDirs)
	f := NewFaulty(fs, &fault.Chooser{Budget: 1 << 30})
	res := mm.RunEra(greedy, false, func(mt *machine.T) { faultScript(f, mt) })
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	_, faults := f.Counters()
	if faults[fault.FailStop] != 0 {
		t.Fatal("nil Eligible enumerated permanent death")
	}
	if faults[fault.Create] == 0 {
		t.Fatal("greedy chooser injected no transient faults; test is vacuous")
	}

	// Explicit opt-in with a budget of one: exactly one death, tagged
	// "failstop" at the chooser.
	var sawTag bool
	tagSpy := machine.ChooserFunc(func(n int, tag string) int {
		if tag == "failstop" {
			sawTag = true
			return 1
		}
		return 0
	})
	mm2 := machine.New(machine.Options{MaxSteps: 100000})
	fs2 := NewModel(mm2, faultScriptDirs)
	f2 := NewFaulty(fs2, &fault.Chooser{Budget: 1, Eligible: fault.Classes(fault.FailStop)})
	res = mm2.RunEra(tagSpy, false, func(mt *machine.T) { faultScript(f2, mt) })
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if !sawTag {
		t.Fatal("no failstop-tagged choice reached the chooser")
	}
	_, faults2 := f2.Counters()
	if faults2[fault.FailStop] != 1 {
		t.Fatalf("budget 1 but %d deaths injected", faults2[fault.FailStop])
	}
	if !f2.FailStopped() {
		t.Fatal("injection did not latch")
	}
}

// detailOps calls each Faulty operation once, on descriptors taken from
// the inner backend — so a policy that fails every Create cannot starve
// the operations that need a file.
var detailOps = []struct {
	name string
	call func(f *Faulty, th T, w, r FD)
}{
	{"create", func(f *Faulty, th T, w, r FD) { f.Create(th, "spool", "n") }},
	{"open", func(f *Faulty, th T, w, r FD) { f.Open(th, "box", "r") }},
	{"append", func(f *Faulty, th T, w, r FD) { f.Append(th, w, []byte("12345")) }},
	{"readat", func(f *Faulty, th T, w, r FD) { f.ReadAt(th, r, 3, 64) }},
	{"size", func(f *Faulty, th T, w, r FD) { f.Size(th, r) }},
	{"sync", func(f *Faulty, th T, w, r FD) { f.Sync(th, w) }},
	{"syncdir", func(f *Faulty, th T, w, r FD) { f.SyncDir(th, "box") }},
	{"delete", func(f *Faulty, th T, w, r FD) { f.Delete(th, "box", "r") }},
	{"link", func(f *Faulty, th T, w, r FD) { f.Link(th, "box", "r", "spool", "l") }},
	{"list", func(f *Faulty, th T, w, r FD) { f.List(th, "box") }},
}

// faultDetailsGolden is what every gate of every operation records when
// it injects — "class/operation: the fault.Event as the shutdown dump
// prints it | the machine trace line" — as rendered by the code that
// built each detail string eagerly, on every call. Details are now
// rendered only on injection; what is rendered must not have moved.
const faultDetailsGolden = `create/create: create#0 spool/n | t0: fs.fault create#0 spool/n
append/append: append#0 5 bytes | t0: fs.fault append#0 5 bytes
read-short/readat: read-short#0 off 3: 7 -> 4 bytes | t0: fs.fault read-short#0 off 3: 7 -> 4 bytes
sync/sync: sync#0  | t0: fs.fault sync#0 
sync/syncdir: sync#0 box | t0: fs.fault sync#0 box
delete/delete: delete#0 box/r | t0: fs.fault delete#0 box/r
link/link: link#0 box/r -> spool/l | t0: fs.fault link#0 box/r -> spool/l
fail-stop/create: fail-stop#0 create spool/n | t0: fs.failstop #0 create spool/n
fail-stop/open: fail-stop#0 open box/r | t0: fs.failstop #0 open box/r
fail-stop/append: fail-stop#0 append | t0: fs.failstop #0 append
fail-stop/readat: fail-stop#0 read off 3 | t0: fs.failstop #0 read off 3
fail-stop/size: fail-stop#0 size | t0: fs.failstop #0 size
fail-stop/sync: fail-stop#0 sync | t0: fs.failstop #0 sync
fail-stop/syncdir: fail-stop#0 syncdir box | t0: fs.failstop #0 syncdir box
fail-stop/delete: fail-stop#0 delete box/r | t0: fs.failstop #0 delete box/r
fail-stop/link: fail-stop#0 link box/r -> spool/l | t0: fs.failstop #0 link box/r -> spool/l
fail-stop/list: fail-stop#0 list box | t0: fs.failstop #0 list box
no-space/create: no-space#0 create spool/n | t0: fs.nospace #0 create spool/n
no-space/append: no-space#0 append 5 bytes | t0: fs.nospace #0 append 5 bytes
no-space/link: no-space#0 link box/r -> spool/l | t0: fs.nospace #0 link box/r -> spool/l
no-files/create: no-files#0 create spool/n | t0: fs.fault no-files#0 create spool/n
no-files/open: no-files#0 open box/r | t0: fs.fault no-files#0 open box/r
`

// TestFaultDetailsGolden drives every operation through every gate that
// can fire on it, once under a SeededPolicy that always fires and once
// under a ChooserPolicy whose chooser always injects, and pins every
// fault.Event, its dump line and its trace line. (fault.Corrupt is left
// out: its detail was always built on injection only, and its mode is
// chosen differently by the two policies.)
func TestFaultDetailsGolden(t *testing.T) {
	run := func(class fault.Class, policy fault.Policy, chooser machine.Chooser) string {
		var out strings.Builder
		for _, op := range detailOps {
			mm := machine.New(machine.Options{MaxSteps: 10000, TraceDepth: machine.TraceAll})
			fs := NewModel(mm, faultScriptDirs)
			f := NewFaulty(fs, policy)
			res := mm.RunEra(chooser, false, func(mt *machine.T) {
				fd, _ := fs.Create(mt, "box", "r")
				fs.Append(mt, fd, []byte("0123456789"))
				fs.Close(mt, fd)
				w, _ := fs.Create(mt, "spool", "w")
				r, _ := fs.Open(mt, "box", "r")
				op.call(f, mt, w, r)
			})
			if res.Outcome != machine.Done {
				t.Fatalf("%s/%s: %+v", class, op.name, res)
			}
			var lines []string
			for _, l := range mm.Trace() {
				if strings.Contains(l, "fs.fault ") || strings.Contains(l, "fs.failstop ") || strings.Contains(l, "fs.nospace ") {
					lines = append(lines, l)
				}
			}
			log := f.Log()
			if len(log) != len(lines) || len(log) > 1 {
				t.Fatalf("%s/%s: %d events, %d trace lines: %v %v", class, op.name, len(log), len(lines), log, lines)
			}
			if len(log) == 1 {
				fmt.Fprintf(&out, "%s/%s: %s | %s\n", class, op.name, log[0], lines[0])
			}
		}
		return out.String()
	}

	var seeded, chosen strings.Builder
	for class := fault.Class(0); class < fault.NumClasses; class++ {
		if class == fault.Corrupt {
			continue
		}
		var rates [fault.NumClasses]uint64
		rates[class] = 1
		seeded.WriteString(run(class, &SeededPolicy{Seed: 14, Rates: rates}, machine.SeqChooser{}))
		always := machine.ChooserFunc(func(n int, tag string) int { return n - 1 })
		chosen.WriteString(run(class, &fault.Chooser{Budget: 1 << 30, Eligible: map[fault.Class]bool{class: true}}, always))
	}
	if seeded.String() != faultDetailsGolden {
		t.Errorf("SeededPolicy details moved:\n got:\n%s\nwant:\n%s", seeded.String(), faultDetailsGolden)
	}
	if chosen.String() != faultDetailsGolden {
		t.Errorf("ChooserPolicy details moved:\n got:\n%s\nwant:\n%s", chosen.String(), faultDetailsGolden)
	}
}
