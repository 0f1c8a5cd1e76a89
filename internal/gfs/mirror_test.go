package gfs

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
)

// mirrorDirs is the data-directory set mirror tests run over; the
// backends additionally need MirrorMetaDir for the generation markers.
var mirrorDirs = []string{"spool", "box"}

func mirrorBackendDirs() []string { return append([]string{MirrorMetaDir}, mirrorDirs...) }

// newOSMirror builds a mirror whose replicas are OS backends behind
// revivable fault layers, returning the mirror and the two fault
// layers (the kill switches).
func newOSMirror(t *testing.T) (*Mirrored, [2]*Faulty) {
	t.Helper()
	f0 := NewFaulty(newOSFS(t, mirrorBackendDirs()), fault.Never{})
	f1 := NewFaulty(newOSFS(t, mirrorBackendDirs()), fault.Never{})
	return NewMirrored(f0, f1, mirrorDirs), [2]*Faulty{f0, f1}
}

// reboot is a restart over the same disks, as the daemon's boot builds
// it: a fresh fault layer over each backend (a dead disk comes back,
// replaced, with whatever stale state it holds) and a fresh mirror, every
// in-memory flag lost.
func reboot(f [2]*Faulty) (*Mirrored, [2]*Faulty) {
	g := [2]*Faulty{NewFaulty(f[0].Inner(), f[0].policy), NewFaulty(f[1].Inner(), f[1].policy)}
	return NewMirrored(g[0], g[1], mirrorDirs), g
}

// snapshot reads every (dir, name, contents) triple reachable through
// sys — the observable state used to compare replicas byte-for-byte.
func snapshot(t *testing.T, sys System, th T, dirs []string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, dir := range dirs {
		for _, name := range sys.List(th, dir) {
			data, ok := readSealed(sys, th, dir, name)
			if !ok {
				t.Fatalf("snapshot: read %s/%s failed", dir, name)
			}
			out[dir+"/"+name] = string(data)
		}
	}
	return out
}

// TestMirroredTransparent: with both replicas healthy the mirror is an
// ordinary System — the shared workload completes, reads see the
// writes, and the replicas end byte-identical.
func TestMirroredTransparent(t *testing.T) {
	m, _ := newOSMirror(t)
	th := NewNative(1)
	faultScript(m, th)

	if names := m.List(th, "box"); len(names) != 6 {
		t.Fatalf("workload delivered %v, want 6 files", names)
	}
	s0 := snapshot(t, m.Replica(0), th, mirrorDirs)
	s1 := snapshot(t, m.Replica(1), th, mirrorDirs)
	if !reflect.DeepEqual(s0, s1) {
		t.Fatalf("replicas diverged with no faults:\nr0: %v\nr1: %v", s0, s1)
	}
	if m.Degraded() {
		t.Fatal("mirror degraded with no faults")
	}
	if st := m.Status(); st.Failovers != 0 || !st.Replicas[0].Live || !st.Replicas[1].Live {
		t.Fatalf("status: %+v", st)
	}
}

// TestMirroredReadFailover: when the published replica dies, reads —
// listings, opens, and in-flight descriptors — fail over to the
// survivor without losing data.
func TestMirroredReadFailover(t *testing.T) {
	m, f := newOSMirror(t)
	th := NewNative(1)

	write := func(name, contents string) {
		fd, ok := m.Create(th, "box", name)
		if !ok || !m.Append(th, fd, []byte(contents)) {
			t.Fatalf("write %s failed", name)
		}
		m.Close(th, fd)
	}
	write("a", "alpha")
	write("b", "beta")

	// Descriptor opened while replica 0 was healthy...
	pre, ok := m.Open(th, "box", "a")
	if !ok {
		t.Fatal("open before death failed")
	}

	f[0].FailStopNow("test")

	// ...fails over mid-read when the replica dies under it.
	if got := string(m.ReadAt(th, pre, 0, 64)); got != "alpha" {
		t.Fatalf("mid-read failover returned %q", got)
	}
	m.Close(th, pre)

	if names := m.List(th, "box"); len(names) != 2 {
		t.Fatalf("post-death listing: %v", names)
	}
	fd, ok := m.Open(th, "box", "b")
	if !ok {
		t.Fatal("open after death failed")
	}
	if got := string(m.ReadAt(th, fd, 0, 64)); got != "beta" {
		t.Fatalf("post-death read returned %q", got)
	}
	if m.Size(th, fd) != 4 {
		t.Fatal("post-death size wrong")
	}
	m.Close(th, fd)

	st := m.Status()
	if !st.Degraded || st.Replicas[0].Live || st.Failovers == 0 {
		t.Fatalf("status after death: %+v", st)
	}
}

// TestMirroredWritesSurviveReplicaDeath: writes keep committing on the
// survivor after either replica dies, whichever one it is.
func TestMirroredWritesSurviveReplicaDeath(t *testing.T) {
	for _, victim := range []int{0, 1} {
		m, f := newOSMirror(t)
		th := NewNative(1)

		fd, ok := m.Create(th, "spool", "pre")
		if !ok || !m.Append(th, fd, []byte("pre")) {
			t.Fatal("pre-death write failed")
		}
		m.Close(th, fd)

		f[victim].FailStopNow("test")

		fd, ok = m.Create(th, "spool", "post")
		if !ok || !m.Append(th, fd, []byte("post")) || !m.Sync(th, fd) {
			t.Fatalf("victim %d: post-death write failed", victim)
		}
		m.Close(th, fd)
		if !m.Link(th, "spool", "post", "box", "msg") {
			t.Fatalf("victim %d: post-death link failed", victim)
		}
		if !m.Delete(th, "spool", "post") {
			t.Fatalf("victim %d: post-death delete failed", victim)
		}
		data, ok := readSealed(m, th, "box", "msg")
		if !ok || string(data) != "post" {
			t.Fatalf("victim %d: post-death read %q ok=%v", victim, data, ok)
		}
		if !m.Degraded() {
			t.Fatalf("victim %d: not degraded", victim)
		}
		// The survivor recorded the degrade in its generation marker.
		if g := m.generation(th, 1-victim); g != 1 {
			t.Fatalf("victim %d: survivor generation %d, want 1", victim, g)
		}
	}
}

// syncFails fails every Sync and SyncDir while on.
type syncFails struct{ on bool }

func (p *syncFails) Decide(_ fault.T, c fault.Class, _ uint64) bool { return p.on && c == fault.Sync }

// TestMirroredUndurableBumpKeepsReplicaIn: a survivor that cannot make
// its generation bump durable, and is not dead itself, gets no bumped
// token: replica 0's death leaves it in, so the write fails rather than
// ack on replica 1 alone, until a bump succeeds. Replica 0 as the
// survivor wins a generation tie anyway, so replica 1's death degrades
// over a failed bump.
func TestMirroredUndurableBumpKeepsReplicaIn(t *testing.T) {
	for _, victim := range []int{0, 1} {
		var p [2]syncFails
		f := [2]*Faulty{
			NewFaulty(newOSFS(t, mirrorBackendDirs()), &p[0]),
			NewFaulty(newOSFS(t, mirrorBackendDirs()), &p[1]),
		}
		m := NewMirrored(f[0], f[1], mirrorDirs)
		th := NewNative(1)
		f[victim].FailStopNow("test")
		p[1-victim].on = true
		create := func(name string) bool {
			fd, ok := m.Create(th, "spool", name)
			if ok {
				m.Close(th, fd)
			}
			return ok
		}
		if ok := create("a"); ok != (victim == 1) || m.Degraded() != (victim == 1) {
			t.Fatalf("victim %d, survivor's bump not durable: create ok=%v, degraded=%v", victim, ok, m.Degraded())
		}
		p[1-victim].on = false
		if !create("b") || !m.Degraded() {
			t.Fatalf("victim %d: create after a durable bump failed or left the mirror whole", victim)
		}
	}
}

// TestMirroredResilverRestoresRedundancy: replica dies, the survivor
// keeps accepting writes, the site reboots with the replica back (stale)
// and resilvers it — after which both replicas are byte-identical, the
// mirror reports healthy, and the copied volume is accounted.
func TestMirroredResilverRestoresRedundancy(t *testing.T) {
	for _, victim := range []int{0, 1} {
		m, f := newOSMirror(t)
		th := NewNative(1)

		write := func(name, contents string) {
			fd, ok := m.Create(th, "box", name)
			if !ok || !m.Append(th, fd, []byte(contents)) {
				t.Fatalf("write %s failed", name)
			}
			m.Close(th, fd)
		}
		write("before", "written while redundant")
		f[victim].FailStopNow("test")
		write("after", "written while degraded")

		m, _ = reboot(f)
		_, bytes, ok := m.Resilver(th)
		if !ok {
			t.Fatalf("victim %d: resilver failed", victim)
		}
		if bytes == 0 {
			t.Fatalf("victim %d: resilver copied nothing", victim)
		}
		if m.Degraded() {
			t.Fatalf("victim %d: still degraded after resilver: %+v", victim, m.Status())
		}
		all := append([]string{MirrorMetaDir}, mirrorDirs...)
		s0 := snapshot(t, m.Replica(0), th, all)
		s1 := snapshot(t, m.Replica(1), th, all)
		if !reflect.DeepEqual(s0, s1) {
			t.Fatalf("victim %d: replicas differ after resilver:\nr0: %v\nr1: %v", victim, s0, s1)
		}
		if len(s0) == 0 {
			t.Fatalf("victim %d: resilvered store is empty", victim)
		}
	}
}

// TestMirroredGenerationSurvivesReboot: after a replica death, a brand
// new Mirrored over the same backends (all in-memory flags lost, as at
// process reboot) must still pick the survivor as the resilver source —
// the persisted generation marker, not memory, carries that knowledge.
// This is the scenario where choosing wrong silently destroys every
// write acknowledged while degraded.
func TestMirroredGenerationSurvivesReboot(t *testing.T) {
	m, f := newOSMirror(t)
	th := NewNative(1)

	fd, _ := m.Create(th, "box", "old")
	m.Append(th, fd, []byte("both replicas have this"))
	m.Close(th, fd)

	// Replica 0 — the normally-authoritative published replica — dies,
	// and the survivor alone accepts an acknowledged write.
	f[0].FailStopNow("test")
	fd, ok := m.Create(th, "box", "acked")
	if !ok || !m.Append(th, fd, []byte("only the survivor has this")) {
		t.Fatal("degraded write failed")
	}
	m.Close(th, fd)

	// Reboot: the stale disk is back, contents intact but old.
	m2, _ := reboot(f)
	_, bytes, ok := m2.Resilver(th)
	if !ok {
		t.Fatalf("post-reboot resilver failed (copied %d bytes)", bytes)
	}
	data, ok := readSealed(m2.Replica(0), th, "box", "acked")
	if !ok || string(data) != "only the survivor has this" {
		t.Fatalf("resilver went backwards: acked write lost (ok=%v, %q)", ok, data)
	}
	all := append([]string{MirrorMetaDir}, mirrorDirs...)
	if !reflect.DeepEqual(snapshot(t, m2.Replica(0), th, all), snapshot(t, m2.Replica(1), th, all)) {
		t.Fatal("replicas differ after post-reboot resilver")
	}
	// And with equal generations and no death, resilver is a no-op copy.
	if _, n, ok := m2.Resilver(th); !ok || n != 0 {
		t.Fatalf("idempotent re-resilver: bytes=%d ok=%v", n, ok)
	}
}

// TestMirroredSkippedResilverLeavesStaleReads documents the mutation
// the explore scenarios must catch: rebooting WITHOUT resilvering serves
// stale data — the acknowledged degraded-era write is invisible, and
// only the persisted generations, which a resilver reads, know it.
func TestMirroredSkippedResilverLeavesStaleReads(t *testing.T) {
	m, f := newOSMirror(t)
	th := NewNative(1)

	f[0].FailStopNow("test")
	fd, ok := m.Create(th, "box", "acked")
	if !ok || !m.Append(th, fd, []byte("payload")) {
		t.Fatal("degraded write failed")
	}
	m.Close(th, fd)

	m, _ = reboot(f) // recovery forgot to resilver
	if _, ok := m.Open(th, "box", "acked"); ok {
		t.Fatal("stale replica 0 somehow serves the degraded-era write")
	}
	if g0, g1 := m.generation(th, 0), m.generation(th, 1); g1 <= g0 {
		t.Fatalf("generations %d/%d do not name the survivor", g0, g1)
	}
}

// TestMirroredFailedResilverReportsDegraded: a boot resilver that a
// transient write failure stops, with no replica fail-stopped, leaves
// the replicas different — so the mirror must report degraded (what
// /healthz serves) until a later resilver succeeds, and that interval
// must reach gfs_mirror_degraded_seconds.
func TestMirroredFailedResilverReportsDegraded(t *testing.T) {
	m, f := newOSMirror(t)
	th := NewNative(1)
	f[0].FailStopNow("test")
	fd, ok := m.Create(th, "box", "acked")
	if !ok || !m.Append(th, fd, []byte("only the survivor has this")) {
		t.Fatal("degraded write failed")
	}
	m.Close(th, fd)

	// Reboot onto a replica 0 whose creates fail transiently.
	failing := true
	f[0] = NewFaulty(f[0].Inner(), policyFunc(func(op fault.Class, _ uint64) bool { return failing && op == fault.Create }))
	m = NewMirrored(f[0], NewFaulty(f[1].Inner(), fault.Never{}), mirrorDirs)
	m.Metrics = NewMirrorMetrics(obs.NewRegistry())
	if _, _, ok := m.Resilver(th); ok {
		t.Fatal("resilver succeeded although every create on its destination failed")
	}
	if st := m.Status(); !st.Degraded || !st.Replicas[0].Live || !st.Replicas[1].Live || m.Metrics.Degraded.Value() != 1 {
		t.Fatalf("status after a failed resilver with both replicas live: %+v, gauge %d", st, m.Metrics.Degraded.Value())
	}
	failing = false
	if _, _, ok := m.Resilver(th); !ok {
		t.Fatal("resilver failed with the fault gone")
	}
	if m.Degraded() || m.Metrics.Degraded.Value() != 0 {
		t.Fatalf("still degraded after a successful resilver: %+v, gauge %d", m.Status(), m.Metrics.Degraded.Value())
	}
	// The interval the failed resilver opened is recorded when the next
	// one closes it.
	if n := m.Metrics.DegradedSeconds.Count(); n != 1 {
		t.Fatalf("%d degraded intervals recorded, want the failed resilver's one", n)
	}
}

// TestMirroredModelFDHygiene runs the mirror over two modeled file
// systems on one machine — the configuration the explore scenarios use
// — and checks the workload completes with no leaked descriptors on
// either replica and byte-identical replica state.
func TestMirroredModelFDHygiene(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 100000})
	r0 := NewModel(mm, mirrorBackendDirs())
	r1 := NewModel(mm, mirrorBackendDirs())
	m := NewMirrored(
		NewFaulty(r0, fault.Never{}),
		NewFaulty(r1, fault.Never{}),
		mirrorDirs,
	)
	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		faultScript(m, mt)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	if n0, n1 := r0.OpenFDs(), r1.OpenFDs(); n0 != 0 || n1 != 0 {
		t.Fatalf("leaked fds: r0=%d r1=%d", n0, n1)
	}
	for _, dir := range mirrorDirs {
		d0, d1 := r0.PeekDir(dir), r1.PeekDir(dir)
		if len(d0) != len(d1) {
			t.Fatalf("%s: replica entry counts differ: %d vs %d", dir, len(d0), len(d1))
		}
		for name, want := range d0 {
			if string(d1[name]) != string(want) {
				t.Fatalf("%s/%s differs across replicas", dir, name)
			}
		}
	}
}

// TestMirroredBlankReplacementNeverSource: a disk that dies while the
// mirror is OFF gets no generation bump — no survivor was running to
// witness the death — so when the operator installs a blank replacement
// and reboots, the generations still tie at zero. The bare tie rule
// would pick replica 0, and with replica 0 the blank replacement, the
// resilver would copy nothing over everything. The blank exception must
// pick the survivor instead, persist its authority as a generation bump
// (so a crash mid-copy re-picks it once the replacement is partially
// populated and no longer blank), and end with byte-identical replicas.
func TestMirroredBlankReplacementNeverSource(t *testing.T) {
	m, _ := newOSMirror(t)
	th := NewNative(1)
	fd, ok := m.Create(th, "box", "acked")
	if !ok || !m.Append(th, fd, []byte("survivor payload")) {
		t.Fatal("write failed")
	}
	m.Close(th, fd)

	// Power off; replica 0's disk dies cold; a blank replacement is
	// installed; reboot = a fresh mirror over (blank, survivor).
	blank0 := NewFaulty(newOSFS(t, mirrorBackendDirs()), fault.Never{})
	m2 := NewMirrored(blank0, m.Replica(1), mirrorDirs)
	_, n, ok := m2.Resilver(th)
	if !ok || n == 0 {
		t.Fatalf("resilver onto blank replacement: bytes=%d ok=%v", n, ok)
	}
	data, ok := readSealed(m2.Replica(0), th, "box", "acked")
	if !ok || string(data) != "survivor payload" {
		t.Fatalf("blank replacement wiped the survivor: ok=%v, %q", ok, data)
	}
	if m2.Degraded() {
		t.Fatalf("still degraded after resilver: %+v", m2.Status())
	}
	all := append([]string{MirrorMetaDir}, mirrorDirs...)
	if !reflect.DeepEqual(snapshot(t, m2.Replica(0), th, all), snapshot(t, m2.Replica(1), th, all)) {
		t.Fatal("replicas differ after blank-replacement resilver")
	}
	// The survivor's authority was persisted BEFORE the copy started: a
	// crash mid-copy reboots into a generation inequality that re-picks
	// the survivor, not a blank-check that no longer fires.
	if g := m2.generation(th, 1); g == 0 {
		t.Fatal("survivor authority not persisted as a generation marker")
	}

	// Symmetric case — blank replacement at position 1 — is covered by
	// the bare tie rule (replica 0 is the survivor); confirm no
	// regression from the exception.
	blank1 := NewFaulty(newOSFS(t, mirrorBackendDirs()), fault.Never{})
	m3 := NewMirrored(m2.Replica(0), blank1, mirrorDirs)
	if _, n, ok := m3.Resilver(th); !ok || n == 0 {
		t.Fatalf("resilver onto blank replica 1: bytes=%d ok=%v", n, ok)
	}
	data, ok = readSealed(m3.Replica(1), th, "box", "acked")
	if !ok || string(data) != "survivor payload" {
		t.Fatalf("replica 1 replacement not populated: ok=%v, %q", ok, data)
	}
}

// TestMirroredUnwrapHelpers: AsResilverer and AsFailStopper must see
// through Observed/Faulty stacking, and single-backend stacks must
// resolve to nil (that is how non-mirrored recovery skips resilver).
func TestMirroredUnwrapHelpers(t *testing.T) {
	m, f := newOSMirror(t)
	wrapped := NewObserved(m, FSMetrics{})
	if AsResilverer(wrapped) != Resilverer(m) {
		t.Fatal("AsResilverer did not unwrap Observed(Mirrored)")
	}
	if AsFailStopper(NewObserved(f[0], FSMetrics{})) != FailStopper(f[0]) {
		t.Fatal("AsFailStopper did not unwrap Observed(Faulty)")
	}
	single := NewObserved(NewFaulty(newOSFS(t, errorPathDirs), fault.Never{}), FSMetrics{})
	if AsResilverer(single) != nil {
		t.Fatal("single-backend stack reports a resilverer")
	}
}

// conflicts reports whether a transition of as conflicts with one of bs.
func conflicts(as, bs [][]machine.Access) bool {
	for _, a := range as {
		for _, b := range bs {
			if machine.Conflict(a, b) {
				return true
			}
		}
	}
	return false
}

// TestMirrorStateDeclarations: over Models, each access to the mirror's
// flags and to an envelope's detection count conflicts with the accesses
// that read what it writes, and one replica's failed flag commutes with
// the other's. Each call runs as a span of its own transitions, so a
// dropped Touch makes its case commute; a resilver's start and end each
// write the repair flags Status reads.
func TestMirrorStateDeclarations(t *testing.T) {
	rec := &machine.Recorder{}
	m := machine.New(machine.Options{MaxSteps: 100000, Reducer: rec})
	r0 := NewChecksummed(NewModel(m, mirrorBackendDirs()), mirrorBackendDirs())
	mir := NewMirrored(r0, NewModel(m, mirrorBackendDirs()), mirrorDirs)
	spans := map[string][][]machine.Access{}
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		span := func(name string, fn func()) {
			mt.StepDeclared("mark")
			lo := len(rec.Ran) // the transition the mark starts ends at the next draw
			fn()
			mt.StepDeclared("mark")
			spans[name] = rec.Ran[lo:len(rec.Ran):len(rec.Ran)]
		}
		span("resilver", func() { mir.Resilver(mt) })
		span("alive(0)", func() { mir.alive(0) })
		span("alive(1)", func() { mir.alive(1) })
		span("Status", func() { mir.Status() })
		span("countFailover", func() { mir.countFailover(mt) })
		span("degrade(0)", func() { mir.degrade(0, bumped{}) })
		span("resilver, replica 0 failed", func() { mir.Resilver(mt) })
		span("Detected", func() { r0.Detected() })
		span("noteDetected", func() { r0.noteDetected(mt, "box", "m", VerdictCorrupt) })
	})
	if res.Outcome != machine.Done {
		t.Fatalf("era: %+v", res)
	}
	for _, c := range []struct {
		a, b     string
		conflict bool
	}{
		{"degrade(0)", "alive(0)", true},
		{"degrade(0)", "alive(1)", false},
		{"degrade(0)", "Status", true},
		{"countFailover", "Status", true},
		{"resilver, replica 0 failed", "Status", true},
		{"noteDetected", "Detected", true},
	} {
		if got := conflicts(spans[c.a], spans[c.b]); got != c.conflict {
			t.Errorf("%s / %s: conflict %v, want %v (%v vs %v)", c.a, c.b, got, c.conflict, spans[c.a], spans[c.b])
		}
	}
	writes := 0
	for _, fp := range spans["resilver"] {
		if conflicts([][]machine.Access{fp}, spans["Status"]) {
			writes++
		}
	}
	if writes != 2 {
		t.Errorf("%d transitions of a resilver conflict with Status, want 2: its start and end write the repair flags", writes)
	}
}
