package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gfs"
)

// leafFS is a fake bottom layer: every call succeeds, Append and ReadAt
// take `cost`.
type leafFS struct{ cost time.Duration }

type fakeLock struct{}

func (fakeLock) Acquire(gfs.T) {}
func (fakeLock) Release(gfs.T) {}

func (l leafFS) NewLock(gfs.T, string) gfs.Lock              { return fakeLock{} }
func (l leafFS) Create(gfs.T, string, string) (gfs.FD, bool) { return 1, true }
func (l leafFS) Open(gfs.T, string, string) (gfs.FD, bool)   { return 1, true }
func (l leafFS) Append(gfs.T, gfs.FD, []byte) bool           { time.Sleep(l.cost); return true }
func (l leafFS) Close(gfs.T, gfs.FD)                         {}
func (l leafFS) ReadAt(_ gfs.T, _ gfs.FD, _, n uint64) []byte {
	time.Sleep(l.cost)
	return make([]byte, n)
}
func (l leafFS) Size(gfs.T, gfs.FD) uint64         { return 0 }
func (l leafFS) Sync(gfs.T, gfs.FD) bool           { return true }
func (l leafFS) SyncDir(gfs.T, string) bool        { return true }
func (l leafFS) Delete(gfs.T, string, string) bool { return true }
func (l leafFS) Link(gfs.T, string, string, string, string) bool {
	return true
}
func (l leafFS) List(gfs.T, string) []string { return nil }

// doublerFS is a fake middle layer: it spends `cost` of its own per
// Append and writes every payload to its inner layer twice.
type doublerFS struct {
	gfs.System
	cost time.Duration
}

func (d doublerFS) Append(t gfs.T, fd gfs.FD, data []byte) bool {
	time.Sleep(d.cost)
	return d.System.Append(t, fd, data) && d.System.Append(t, fd, data)
}

func TestSpanFSSelfTimeOnATwoLayerStack(t *testing.T) {
	rec := newRecorder()
	buf := rec.newBuf(false)
	th := newBenchT(1, buf)
	leaf := leafFS{cost: 2 * time.Millisecond}
	stack := newSpanFS(doublerFS{System: newSpanFS(leaf, lyOS), cost: 3 * time.Millisecond}, lyMirrored)

	// Outside a request nothing is recorded.
	stack.Append(th, 1, make([]byte, 10))
	if buf.n != 0 {
		t.Fatalf("%d spans recorded outside any request", buf.n)
	}
	buf.req = 0
	top := buf.enter(lyBench, callDeliver)
	stack.Append(th, 1, make([]byte, 100))
	buf.exit(top, 0)
	buf.req = -1

	if buf.n != 4 {
		t.Fatalf("%d spans, want 4 (request, mirrored append, 2 os appends)", buf.n)
	}
	l := rec.analyze([]reqInfo{{kind: opDeliver, userBytes: 100}})
	if l.uncontained != 0 {
		t.Errorf("%d uncontained spans", l.uncontained)
	}
	mirSelf, osSelf, benchSelf := l.selfNs[0][lyMirrored], l.selfNs[0][lyOS], l.selfNs[0][lyBench]
	// The parts sum to the whole, exactly: that is what self time means.
	if sum := mirSelf + osSelf + benchSelf; sum != l.topNs[0] {
		t.Errorf("self times sum to %d ns but the request took %d ns", sum, l.topNs[0])
	}
	ms := int64(time.Millisecond)
	if mirSelf < 3*ms || mirSelf > 3*ms+2*ms {
		t.Errorf("middle layer self time %v, want about 3 ms (its own sleep, not its children's 4 ms)", time.Duration(mirSelf))
	}
	if osSelf < 4*ms || osSelf > 4*ms+3*ms {
		t.Errorf("leaf self time %v, want about 4 ms (two 2 ms appends)", time.Duration(osSelf))
	}
	if benchSelf > ms {
		t.Errorf("request wrapper self time %v: the shims themselves cost that much", time.Duration(benchSelf))
	}
	if l.outCalls[lyMirrored] != 2 || l.callCount[lyMirrored][callAppend] != 1 {
		t.Errorf("mirrored: %d calls in, %d out, want 1 and 2", l.callCount[lyMirrored][callAppend], l.outCalls[lyMirrored])
	}
	if in, out := l.inBytes[lyMirrored][callAppend], l.outBytes[lyMirrored][callAppend]; in != 100 || out != 200 {
		t.Errorf("mirrored: %d bytes in, %d out, want 100 and 200", in, out)
	}
	if u := l.unattributed(); u > 0.1 {
		t.Errorf("unattributed ratio %v", u)
	}

	// The trace file holds one well-formed line per span.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := rec.writeJSONL(path, "test", false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		for _, key := range []string{"leg", "buf", "id", "parent", "req", "layer", "call", "start_ns", "end_ns", "bytes"} {
			if _, ok := row[key]; !ok {
				t.Errorf("line %d lacks %q: %s", lines, key, sc.Text())
			}
		}
	}
	if lines != 4 {
		t.Errorf("%d trace lines, want 4", lines)
	}
}

func TestAnalyzeAdoptsServerSideSpans(t *testing.T) {
	// A protocol leg: the client's top span and, in another buffer, the
	// server-side span of the same request.
	rec := newRecorder()
	client, server := rec.newBuf(false), rec.newBuf(true)
	client.req = 0
	rec.curReq.Store(0)
	top := client.enter(lySMTP, callDeliver)
	time.Sleep(time.Millisecond)
	i := server.enter(lyMailboatd, callDeliver)
	time.Sleep(2 * time.Millisecond)
	server.exit(i, 0)
	client.exit(top, 0)
	l := rec.analyze([]reqInfo{{kind: opDeliver}})
	if l.uncontained != 0 {
		t.Errorf("%d uncontained", l.uncontained)
	}
	if sum := l.selfNs[0][lySMTP] + l.selfNs[0][lyMailboatd]; sum != l.topNs[0] {
		t.Errorf("smtp %d + mailboatd %d != request %d", l.selfNs[0][lySMTP], l.selfNs[0][lyMailboatd], l.topNs[0])
	}
	if d := time.Duration(l.selfNs[0][lyMailboatd]); d < 2*time.Millisecond {
		t.Errorf("server-side span %v, want at least 2 ms", d)
	}
	if u := l.unattributed(); u != 0 {
		t.Errorf("a protocol leg has no request wrapper, yet unattributed = %v", u)
	}
}

func TestSpanFSIsTransparentToCapabilityDiscovery(t *testing.T) {
	cfg := &runCfg{z: newSizes(1, true), seed: 1, log: os.Stderr}
	cfg.z.vaultUsers = 3
	m := &mailRun{cfg: cfg, spec: mailSpecOf(wlMailVault, cfg.z), r: newResult("t")}
	m.pool = newMsgPool(1, 1)
	build := func(shims bool) *handStack {
		h, err := m.buildStack(t.TempDir(), shims, newBenchT(1, nil))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.close)
		return h
	}
	bare, shimmed := build(false), build(true)
	if _, ok := shimmed.sys.(*spanFS); !ok {
		t.Fatal("the shimmed stack's top is not a spanFS")
	}
	for _, h := range []*handStack{bare, shimmed} {
		mir, ok := gfs.AsResilverer(h.sys).(*gfs.Mirrored)
		if !ok {
			t.Fatalf("AsResilverer found %T, want *gfs.Mirrored", gfs.AsResilverer(h.sys))
		}
		if sc, ok := gfs.AsScrubber(h.sys).(*gfs.Mirrored); !ok || sc != mir {
			t.Errorf("AsScrubber found %T", gfs.AsScrubber(h.sys))
		}
		if gfs.AsFailStopper(h.sys) != nil {
			t.Errorf("AsFailStopper(top) found %T above the mirror", gfs.AsFailStopper(h.sys))
		}
		for i := 0; i < 2; i++ {
			if _, ok := gfs.AsFailStopper(mir.Replica(i)).(*gfs.Faulty); !ok {
				t.Errorf("replica %d: AsFailStopper found %T, want *gfs.Faulty", i, gfs.AsFailStopper(mir.Replica(i)))
			}
			if gfs.AsChecksummed(mir.Replica(i)) == nil {
				t.Errorf("replica %d: AsChecksummed found nothing", i)
			}
		}
		if rep := gfs.AsScrubber(h.sys).Scrub(newBenchT(2, nil), true); !rep.Clean() {
			t.Errorf("scrub of an empty store: %v", rep)
		}
	}
}
