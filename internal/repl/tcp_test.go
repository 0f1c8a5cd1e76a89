package repl

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gfs"
	"repro/internal/mailboat"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// tcpRand is the native gfs.T for transport tests: deterministic,
// concurrency-safe (server goroutines draw from it too).
type tcpRand struct{ ctr atomic.Uint64 }

func (r *tcpRand) RandUint64(bound uint64) uint64 {
	z := r.ctr.Add(1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) % bound
}

func tcpConfig() mailboat.Config {
	return mailboat.Config{Users: 2, RandBound: 64, SyncOnDeliver: true, SyncDirs: true}
}

// newTCPNode builds one node over a real on-disk store plus its frame
// server on an ephemeral loopback listener. Returns the node, its
// address, and the server (for kill drills).
func newTCPNode(t *testing.T, rt gfs.T, id int) (*Node, string, *Server) {
	t.Helper()
	cfg := tcpConfig()
	sys, err := gfs.NewOS(t.TempDir(), ReplDirs(cfg))
	if err != nil {
		t.Fatalf("NewOS: %v", err)
	}
	t.Cleanup(func() { sys.CloseAll() })
	mb := mailboat.Init(rt, nil, sys, cfg)
	nd := NewNode(rt, id, mb, sys, Config{RetryBackoff: time.Millisecond})
	srv := NewServer(nd, rt)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return nd, lis.Addr().String(), srv
}

// TestFrameRoundTrip checks the length-prefixed framing over an
// in-memory pipe, including the oversize guard.
func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	payload := bytes.Repeat([]byte("frame"), 1000)
	errc := make(chan error, 1)
	go func() { errc <- writeFrame(a, payload) }()
	got, err := readFrame(b)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if werr := <-errc; werr != nil {
		t.Fatalf("writeFrame: %v", werr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame corrupted: %d bytes vs %d", len(got), len(payload))
	}

	// An oversize header must be rejected without allocating the body.
	go func() {
		hdr := []byte{0xff, 0xff, 0xff, 0xff}
		a.Write(hdr)
	}()
	if _, err := readFrame(b); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestTCPReplicatedDeliver runs the full client leg over real sockets:
// a delivery on the primary must land on the backup's disk (remote
// first) and then the primary's, and a ping must round-trip.
func TestTCPReplicatedDeliver(t *testing.T) {
	rt := &tcpRand{}
	backup, baddr, _ := newTCPNode(t, rt, 1)
	primary, _, _ := newTCPNode(t, rt, 0)
	client := &TCPClient{Addr: baddr, Timeout: time.Second, Metrics: netmodel.NewNetMetrics(obs.NewRegistry())}
	defer client.Close()
	primary.SetPeer(client)
	primary.SetPrimary(true)

	if st, answered := primary.ping(rt); !answered || st != StOK {
		t.Fatalf("ping over TCP: answered=%v status %s", answered, statusName(st))
	}
	if res := primary.DeliverNamed(rt, 0, "msg1", []byte("over tcp")); res != OpOK {
		t.Fatalf("DeliverNamed: %v", res)
	}
	for i, nd := range []*Node{primary, backup} {
		msgs := nd.Mailboat().Pickup(rt, nil, 0)
		if len(msgs) != 1 || string(msgs[0].Contents) != "over tcp" {
			t.Fatalf("node %d: got %d msgs, want the delivery", i, len(msgs))
		}
		nd.Mailboat().Unlock(rt, nil, 0)
	}
	if res := primary.DeleteNamed(rt, 0, "msg1"); res != OpOK {
		t.Fatalf("DeleteNamed: %v", res)
	}
	for i, nd := range []*Node{primary, backup} {
		msgs := nd.Mailboat().Pickup(rt, nil, 0)
		if len(msgs) != 0 {
			t.Fatalf("node %d: %d msgs after replicated delete", i, len(msgs))
		}
		nd.Mailboat().Unlock(rt, nil, 0)
	}
}

// TestTCPPingDetectsStaleBackup: the seq-aware ping behind the
// supervisor tick. A replacement backup (fresh store, volatile apply
// cursor at zero) must answer a ping from a primary with acknowledged
// operations as behind (StNeedResync) — not OK — so one tick records the
// node stale and resyncs it instead of reporting a healthy pair over a
// stale store; after the tick the same ping answers OK, the verdict is in
// sync, and the store holds the data.
func TestTCPPingDetectsStaleBackup(t *testing.T) {
	rt := &tcpRand{}
	_, baddr, _ := newTCPNode(t, rt, 1)
	primary, _, _ := newTCPNode(t, rt, 0)
	client := &TCPClient{Addr: baddr, Timeout: time.Second}
	defer client.Close()
	primary.SetPeer(client)
	primary.SetPrimary(true)
	if res := primary.DeliverNamed(rt, 0, "msg1", []byte("pre-replace")); res != OpOK {
		t.Fatalf("DeliverNamed: %v", res)
	}

	// Replace the backup: a fresh node on a fresh store, as after a
	// reboot that lost the volatile cursor (plus, here, the disk).
	fresh, faddr, _ := newTCPNode(t, rt, 1)
	client2 := &TCPClient{Addr: faddr, Timeout: time.Second}
	defer client2.Close()
	primary.SetPeer(client2)

	if st, _ := primary.ping(rt); st != StNeedResync {
		t.Fatalf("ping against stale backup: %s, want need-resync", statusName(st))
	}
	primary.tick(rt, (*Node).fence)
	if st, _ := primary.ping(rt); st != StOK {
		t.Fatalf("ping after the tick: %s, want ok", statusName(st))
	}
	if h := primary.Health(); h.Degraded || h.Stale {
		t.Fatalf("verdict after the tick's catch-up: %+v", h)
	}
	msgs := fresh.Mailboat().Pickup(rt, nil, 0)
	if len(msgs) != 1 || string(msgs[0].Contents) != "pre-replace" {
		t.Fatalf("replacement backup has %d msgs after resync, want the delivery", len(msgs))
	}
	fresh.Mailboat().Unlock(rt, nil, 0)
}

// TestTCPPartitionOutcome: the drill gate drops calls before the wire
// (Lost — a definite no), flips Reachable, and heals cleanly.
func TestTCPPartitionOutcome(t *testing.T) {
	rt := &tcpRand{}
	_, baddr, _ := newTCPNode(t, rt, 1)
	client := &TCPClient{Addr: baddr, Timeout: time.Second}
	defer client.Close()

	ping := encodeReq(request{kind: kPing})
	if _, out := client.Call(rt, ping); out != netmodel.Delivered {
		t.Fatalf("pre-partition ping: %v", out)
	}
	client.Partition(true)
	if _, out := client.Call(rt, ping); out != netmodel.Lost {
		t.Fatalf("partitioned call outcome: %v, want Lost", out)
	}
	if client.Reachable() {
		t.Fatal("Reachable across an open partition gate")
	}
	if client.PeerDead() {
		t.Fatal("a partition must never read as peer death (split-brain)")
	}
	client.Partition(false)
	if _, out := client.Call(rt, ping); out != netmodel.Delivered {
		t.Fatalf("post-heal ping: %v", out)
	}
	if !client.Reachable() {
		t.Fatal("not Reachable after heal")
	}
}

// TestTCPPeerDeadHeals: a refused-dial streak latches PeerDead, and a
// successful dial (the peer restarted) clears it — unlike the model's
// fail-stop latch, the deployment's verdict heals.
func TestTCPPeerDeadHeals(t *testing.T) {
	rt := &tcpRand{}
	// Reserve an address with no listener: dials are refused.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := lis.Addr().String()
	lis.Close()

	client := &TCPClient{Addr: addr, Timeout: time.Second, DeadAfter: 3}
	defer client.Close()
	ping := encodeReq(request{kind: kPing})
	for i := 0; i < 3; i++ {
		if _, out := client.Call(rt, ping); out != netmodel.Lost {
			t.Fatalf("refused dial %d outcome: %v, want Lost", i, out)
		}
	}
	if !client.PeerDead() {
		t.Fatal("PeerDead false after 3 refused dials")
	}
	if client.Reachable() {
		t.Fatal("Reachable while refused")
	}

	// The peer "restarts": bind the same address and answer frames.
	nd, _, _ := newTCPNode(t, rt, 1)
	srv := NewServer(nd, rt)
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go srv.Serve(lis2)
	defer srv.Close()
	if _, out := client.Call(rt, ping); out != netmodel.Delivered {
		t.Fatalf("post-restart ping: %v", out)
	}
	if client.PeerDead() {
		t.Fatal("PeerDead did not heal on a successful dial")
	}
}

// TestServerCloseSeversConns: Close must kill connections accepted
// before it, not just the listener — a killed node goes silent even to
// a primary holding a cached connection.
func TestServerCloseSeversConns(t *testing.T) {
	rt := &tcpRand{}
	_, baddr, srv := newTCPNode(t, rt, 1)
	client := &TCPClient{Addr: baddr, Timeout: time.Second}
	defer client.Close()
	ping := encodeReq(request{kind: kPing})
	if _, out := client.Call(rt, ping); out != netmodel.Delivered {
		t.Fatalf("ping before kill: %v", out)
	}
	srv.Close()
	// The cached connection was severed server-side: the next call must
	// NOT be Delivered (Unknown on the dead cached conn, or Lost once
	// redialing a closed listener).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, out := client.Call(rt, ping); out != netmodel.Delivered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("killed server kept answering on a cached connection")
		}
	}
}

// deadSwitch is a TCP transport whose failure detector the test sets.
type deadSwitch struct {
	*TCPClient
	dead bool
}

func (d *deadSwitch) PeerDead() bool { return d.dead }

// TestOpCatchUpClearsStale: a catch-up that a client operation runs is
// the supervisor's catch-up body. An ack-alone leaves the primary stale;
// once the peer is back, the next delivery's behind answer runs the
// catch-up, whose completion clears stale, so the next tick finds the
// pair in sync and runs no second catch-up. While the operation ran a bare
// resync, stale stayed set after it and that tick resynced again.
func TestOpCatchUpClearsStale(t *testing.T) {
	rt := &tcpRand{}
	backup, baddr, _ := newTCPNode(t, rt, 1)
	primary, _, _ := newTCPNode(t, rt, 0)
	met := NewMetrics(obs.NewRegistry())
	primary.cfg.Metrics = met
	client := &TCPClient{Addr: baddr, Timeout: time.Second}
	defer client.Close()
	peer := &deadSwitch{TCPClient: client, dead: true}
	primary.SetPeer(peer)
	primary.SetPrimary(true)

	if res := primary.DeliverNamed(rt, 0, "alone", []byte("acked alone")); res != OpOK || !primary.Status().Stale {
		t.Fatalf("ack-alone: %v, stale %v", res, primary.Status().Stale)
	}
	peer.dead = false
	if res := primary.DeliverNamed(rt, 0, "back", []byte("peer back")); res != OpOK {
		t.Fatalf("delivery after the peer came back: %v", res)
	}
	if n := met.Resyncs.Value(); n != 1 || primary.Status().Stale {
		t.Fatalf("after the operation's catch-up: %d completed, stale %v; want 1, false", n, primary.Status().Stale)
	}
	primary.tick(rt, (*Node).fence)
	if n := met.Resyncs.Value(); n != 1 {
		t.Fatalf("the tick after the operation's catch-up resynced again: %d catch-ups", n)
	}
	msgs := backup.Mailboat().Pickup(rt, nil, 0)
	if len(msgs) != 2 {
		t.Fatalf("backup holds %d messages, want both deliveries", len(msgs))
	}
	backup.Mailboat().Unlock(rt, nil, 0)
}
