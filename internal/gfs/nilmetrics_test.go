package gfs

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// TestNilMetricsFullStack is the shared metrics-off audit for every obs
// metric surface the gfs middleware carries (gfs_ops_total and
// gfs_sync_* via FSMetrics, gfs_mirror_* via MirrorMetrics,
// gfs_integrity_* via IntegrityMetrics): the full production stack —
// Observed over Mirrored over Faulty over Checksummed over Model — is
// built with every metric set at its zero value and driven through the
// code paths that bump each counter. A call site that reaches past a
// nil handle panics here instead of in a metric-less server or checker
// run.
func TestNilMetricsFullStack(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 500000})
	dirs := []string{"box"}
	all := append([]string{MirrorMetaDir}, dirs...)
	var mods [2]*Model
	var chks [2]*Checksummed
	var flts [2]*Faulty
	for i := range mods {
		mods[i] = NewModel(mm, all)
		chks[i] = NewChecksummed(mods[i], dirs)
		chks[i].Metrics = IntegrityMetrics{}
		flts[i] = NewFaulty(chks[i], fault.Never{})
		flts[i].Metrics = FSMetrics{}
	}
	mir := NewMirrored(flts[0], flts[1], dirs)
	mir.Metrics = MirrorMetrics{}
	mir.Integrity = IntegrityMetrics{}
	top := NewObserved(mir, FSMetrics{})

	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		// Every op class and both barrier targets on the zero FSMetrics.
		if !writeSealed(top, mt, "box", "a", []byte("alpha")) ||
			!writeSealed(top, mt, "box", "b", []byte("beta")) {
			mt.Failf("seed writes failed")
		}
		if !top.SyncDir(mt, "box") {
			mt.Failf("syncdir failed")
		}

		// Detected and Healed with Checksummed.Metrics and
		// Mirrored.Integrity both zero: rot the read replica's copy and
		// read through the whole stack, forcing a heal-on-read.
		if !mods[0].CorruptFile(mt, "box", "a", CorruptFlip) {
			mt.Failf("corrupt failed")
		}
		if got, ok := readSealed(top, mt, "box", "a"); !ok || string(got) != "alpha" {
			mt.Failf("heal-on-read failed: ok=%v %q", ok, got)
		}

		// Scrub detect-and-heal off the read path, still metric-free.
		mods[1].CorruptFile(mt, "box", "b", CorruptFlip)
		if rep := mir.Scrub(mt, true); !rep.Clean() || rep.Healed != 1 {
			mt.Failf("scrub: %v", rep)
		}

		// ReplicaFailed, Degraded and Failovers on the zero MirrorMetrics.
		flts[0].FailStopNow("nil-metrics drill")
		if _, ok := readSealed(top, mt, "box", "b"); !ok {
			mt.Failf("failover read failed")
		}
		if st := mir.Status(); !st.Degraded || st.Failovers == 0 {
			mt.Failf("mirror not degraded after kill: %+v", st)
		}

		// The resilver counters and DegradedSeconds on the zero
		// MirrorMetrics, after a reboot: a fresh
		// fault layer over replica 0's disk, a fresh mirror.
		mir = NewMirrored(NewFaulty(chks[0], fault.Never{}), flts[1], dirs)
		if _, _, ok := mir.Resilver(mt); !ok {
			mt.Failf("resilver failed")
		}
		if mir.Degraded() {
			mt.Failf("mirror still degraded after resilver")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("stack drill: %+v", res)
	}
}

// TestNilMetricsFaultAndCrash covers the remaining metrics-off call
// sites: an injected fault (gfs_faults_injected_total) and a failed
// durability barrier (gfs_sync_failures_total), through a zero
// FSMetrics, and a writeback crash afterwards.
func TestNilMetricsFaultAndCrash(t *testing.T) {
	mm := machine.New(machine.Options{})
	fs := NewWritebackModel(mm, []string{"d"})
	flt := NewFaulty(fs, fault.Always{Ops: map[fault.Class]bool{fault.Sync: true}})
	flt.Metrics = FSMetrics{}
	top := NewObserved(flt, FSMetrics{})

	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		fd, ok := top.Create(mt, "d", "f")
		if !ok {
			mt.Failf("create failed")
		}
		if !top.Append(mt, fd, []byte("unsynced tail")) {
			mt.Failf("append failed")
		}
		// fault.Sync always fires, so this exercises both
		// a failed file barrier and an injected fault.Sync.
		if top.Sync(mt, fd) {
			mt.Failf("sync unexpectedly succeeded under fault.Always")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("drill: %+v", res)
	}
	// The chooserless crash takes maximal loss: the un-synced entry
	// rolls back and the orphaned bytes are reclaimed.
	mm.CrashReset()
	if got := fs.PeekDir("d")["f"]; len(got) != 0 {
		t.Fatalf("un-synced state survived the crash: %q", got)
	}
}
