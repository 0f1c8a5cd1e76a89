package repl

import (
	"testing"
	"time"
)

// TestNilMetricsReplFullStack audits the zero-value contract of the
// replication observability surface the way the gfs audit does: a full
// replicated exchange over real TCP — deliver, delete, resync, a
// partition, a dead peer — with every repl_* and net_* set left at its
// zero value, which records nothing. A panic anywhere is the failure;
// this is what lets checker runs and tests leave Metrics unset without
// a parallel "metrics off" code path.
func TestNilMetricsReplFullStack(t *testing.T) {
	// The full stack: nodes with a zero Config.Metrics, a TCPClient with
	// zero Metrics, driven through the protocol's instrumented paths.
	rt := &tcpRand{}
	backup, baddr, bsrv := newTCPNode(t, rt, 1)
	primary, _, _ := newTCPNode(t, rt, 0)
	client := &TCPClient{Addr: baddr, Timeout: time.Second}
	defer client.Close()
	primary.SetPeer(client)
	primary.SetPrimary(true)

	if res := primary.DeliverNamed(rt, 0, "m1", []byte("x")); res != OpOK {
		t.Fatalf("DeliverNamed: %v", res)
	}
	if res := primary.DeleteNamed(rt, 0, "m1"); res != OpOK {
		t.Fatalf("DeleteNamed: %v", res)
	}
	// Resync path (Resyncs, Epoch, LastResyncUnix).
	primary.CatchUp(rt)
	if primary.Health().Stale {
		t.Fatal("CatchUp failed")
	}
	// Partition path (net outcome observation on the Lost leg, then
	// the replicate-failed counter).
	client.Partition(true)
	primary.DeliverNamed(rt, 0, "m2", []byte("y"))
	client.Partition(false)
	// Dead-peer path (AckAlone): sever the backup and latch the
	// refused streak via direct pings.
	bsrv.Close()
	ping := encodeReq(request{kind: kPing})
	for i := 0; i < 4 && !client.PeerDead(); i++ {
		client.Call(rt, ping)
	}
	if client.PeerDead() {
		if res := primary.DeliverNamed(rt, 0, "m3", []byte("z")); res != OpOK {
			t.Fatalf("ack-alone DeliverNamed: %v", res)
		}
	}
	_ = backup
}
