package gfs

import (
	"testing"

	"repro/internal/machine"
)

// TestNilMetricsFullStack is the shared nil-receiver audit for every
// obs metric surface the gfs middleware carries (gfs_ops_total and
// gfs_sync_* via FSMetrics, gfs_mirror_* via MirrorMetrics,
// gfs_integrity_* via IntegrityMetrics): the full production stack —
// Observed over Mirrored over Faulty over Checksummed over Model — is
// built with every metrics pointer nil and driven through the code
// paths that bump each counter. A call site that forgets the
// nil-receiver discipline panics here instead of in a metric-less
// server or checker run.
func TestNilMetricsFullStack(t *testing.T) {
	mm := machine.New(machine.Options{MaxSteps: 500000})
	dirs := []string{"box"}
	all := append([]string{MirrorMetaDir}, dirs...)
	var mods [2]*Model
	var chks [2]*Checksummed
	var flts [2]*Faulty
	for i := range mods {
		mods[i] = NewModel(mm, all)
		mods[i].SetMetrics(nil) // crash-time SyncDropped on a nil receiver
		chks[i] = NewChecksummed(mods[i], dirs)
		chks[i].Metrics = nil
		flts[i] = NewFaulty(chks[i], NeverPolicy{})
		flts[i].Metrics = nil
	}
	mir := NewMirrored(flts[0], flts[1], dirs)
	mir.Metrics = nil
	mir.Integrity = nil
	top := NewObserved(mir, nil)

	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		// observe + SyncIssued("file"/"dir") on the nil FSMetrics.
		if !writeSealed(top, mt, "box", "a", []byte("alpha")) ||
			!writeSealed(top, mt, "box", "b", []byte("beta")) {
			mt.Failf("seed writes failed")
		}
		if !top.SyncDir(mt, "box") {
			mt.Failf("syncdir failed")
		}

		// detected + healed with Checksummed.Metrics and
		// Mirrored.Integrity both nil: rot the read replica's copy and
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

		// replicaFailed + failover on the nil MirrorMetrics.
		flts[0].FailStopNow("nil-metrics drill")
		if _, ok := readSealed(top, mt, "box", "b"); !ok {
			mt.Failf("failover read failed")
		}
		if st := mir.Status(); !st.Degraded || st.Failovers == 0 {
			mt.Failf("mirror not degraded after kill: %+v", st)
		}

		// resilverDone on the nil MirrorMetrics.
		flts[0].Revive()
		mir.ReplaceReplica(0)
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

// TestNilMetricsFaultAndCrash covers the remaining nil-receiver call
// sites: an injected fault (FaultInjected), a failed durability
// barrier (SyncIssued with ok=false), and a crash dropping un-synced
// bytes and directory entries (Model.Crash's SyncDropped calls under
// writeback durability) — all through a nil *FSMetrics.
func TestNilMetricsFaultAndCrash(t *testing.T) {
	mm := machine.New(machine.Options{})
	fs := NewWritebackModel(mm, []string{"d"})
	fs.SetMetrics(nil)
	flt := NewFaulty(fs, AlwaysPolicy{Ops: map[FaultOp]bool{FaultSync: true}})
	flt.Metrics = nil
	top := NewObserved(flt, nil)

	res := mm.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		fd, ok := top.Create(mt, "d", "f")
		if !ok {
			mt.Failf("create failed")
		}
		if !top.Append(mt, fd, []byte("unsynced tail")) {
			mt.Failf("append failed")
		}
		// FaultSync always fires, so this exercises both
		// SyncIssued("file", false) and FaultInjected(FaultSync).
		if top.Sync(mt, fd) {
			mt.Failf("sync unexpectedly succeeded under AlwaysPolicy")
		}
	})
	if res.Outcome != machine.Done {
		t.Fatalf("drill: %+v", res)
	}
	// The chooserless crash takes maximal loss: the un-synced entry
	// rolls back and the orphaned bytes are reclaimed, both counted
	// through fs.metrics.SyncDropped — with metrics nil.
	mm.CrashReset()
	if got := fs.PeekDir("d")["f"]; len(got) != 0 {
		t.Fatalf("un-synced state survived the crash: %q", got)
	}
}
