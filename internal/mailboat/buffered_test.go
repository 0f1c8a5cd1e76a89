package mailboat

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
	"repro/internal/machine"
)

// These tests exercise the deferred-durability extension (§6.2 calls
// modeling buffered file-system data future work): on a buffered file
// system a crash truncates unsynced file contents, so Deliver must
// fsync the spooled message before linking it — and the checker proves
// both directions.

func TestBufferedFSWithoutSyncLosesMailFound(t *testing.T) {
	// Without SyncOnDeliver, a crash after the link can truncate the
	// delivered message: the post-crash pickup observes contents the
	// spec never allowed.
	s := Scenario("mb-buffered-nosync", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "needs fsync"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Buffered,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	t.Logf("report: %s", rep.String())
	if rep.OK() {
		t.Fatal("missing-fsync bug not found on the buffered file system")
	}
	if !strings.Contains(rep.Counterexample.Reason, "refinement failure") &&
		!strings.Contains(rep.Counterexample.Reason, "MsgsInv") &&
		!strings.Contains(rep.Counterexample.Reason, "capability mismatch") {
		t.Fatalf("unexpected failure kind:\n%s", rep.Counterexample.Reason)
	}
}

func TestBufferedFSWithSyncIsClean(t *testing.T) {
	s := Scenario("mb-buffered-sync", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2, SyncOnDeliver: true},
		Delivers:    []OpDeliver{{User: 0, Msg: "fsynced"}},
		MaxCrashes:  1,
		PostPickups: true,
		Crash:       Buffered,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	t.Logf("report: %s", rep.String())
	if !rep.OK() {
		t.Fatalf("violation with fsync enabled:\n%s", rep.Counterexample.Format())
	}
	if !rep.Complete {
		t.Error("search did not complete")
	}
}

func TestStrictModelNeedsNoSync(t *testing.T) {
	// The paper's process-crash setting: file data is always durable,
	// so the unsynced deliver is crash-safe (this is the configuration
	// all other mailboat tests check).
	s := Scenario("mb-strict-nosync", VariantVerified, ScenarioOptions{
		Config:      Config{Users: 1, RandBound: 2},
		Delivers:    []OpDeliver{{User: 0, Msg: "no fsync needed"}},
		MaxCrashes:  1,
		PostPickups: true,
	})
	rep := explore.Run(s, explore.Options{MaxExecutions: 50000})
	if !rep.OK() {
		t.Fatalf("violation:\n%s", rep.Counterexample.Format())
	}
}

func TestBufferedModelSyncSemanticsDirect(t *testing.T) {
	m := machine.New(machine.Options{})
	fs := gfs.NewBufferedModel(m, []string{"d"})
	var synced, unsynced gfs.FD
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		synced, _ = fs.Create(mt, "d", "synced")
		fs.Append(mt, synced, []byte("durable"))
		fs.Sync(mt, synced)
		fs.Append(mt, synced, []byte("+volatile"))

		unsynced, _ = fs.Create(mt, "d", "unsynced")
		fs.Append(mt, unsynced, []byte("gone"))
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	m.CrashReset()
	dir := fs.PeekDir("d")
	if got := string(dir["synced"]); got != "durable" {
		t.Fatalf("synced file after crash: %q", got)
	}
	if got := string(dir["unsynced"]); got != "" {
		t.Fatalf("unsynced file after crash: %q", got)
	}
}

func TestStrictModelSyncIsNoOp(t *testing.T) {
	m := machine.New(machine.Options{})
	fs := gfs.NewModel(m, []string{"d"})
	res := m.RunEra(machine.SeqChooser{}, false, func(mt *machine.T) {
		fd, _ := fs.Create(mt, "d", "f")
		fs.Append(mt, fd, []byte("data"))
		fs.Sync(mt, fd)
	})
	if res.Outcome != machine.Done {
		t.Fatalf("res=%+v", res)
	}
	m.CrashReset()
	if got := string(fs.PeekDir("d")["f"]); got != "data" {
		t.Fatalf("strict model lost data: %q", got)
	}
}
