package repl

import (
	"testing"
	"time"

	"repro/internal/netmodel"
)

// TestNilMetricsReplFullStack audits the nil-receiver contract of the
// replication observability surface the way the gfs audit does: every
// repl_* and net_* method called on a nil receiver, then a full
// replicated exchange over real TCP — deliver, delete, resync, a
// partition, a dead peer — with Metrics nil at every layer. A panic
// anywhere is the failure; this is what lets checker runs and tests
// leave Metrics unset without a parallel "metrics off" code path.
func TestNilMetricsReplFullStack(t *testing.T) {
	// The explicit surface: every method, nil receiver.
	var m *Metrics
	m.ReplicateObserved("ok")
	m.ReplicateObserved("retry")
	m.ReplicateObserved("failed")
	m.IndeterminateInc()
	m.AckAloneInc()
	m.ResyncObserved(true)
	m.ResyncObserved(false)
	m.FailoverInc()
	m.StaleRejectedInc()
	m.EpochSet(7)
	m.RoleSet(true)
	m.LastResyncSet(1)

	var nm *netmodel.NetMetrics
	nm.CallsInc()
	nm.OutcomeObserved(netmodel.Delivered)
	nm.OutcomeObserved(netmodel.Lost)
	nm.OutcomeObserved(netmodel.Unknown)

	// The full stack: nodes with Config.Metrics nil, a TCPClient with
	// Metrics nil, driven through the protocol's instrumented paths.
	rt := &tcpRand{}
	backup, baddr, bsrv := newTCPNode(t, rt, 1)
	primary, _, _ := newTCPNode(t, rt, 0)
	client := &TCPClient{Addr: baddr, Timeout: time.Second}
	defer client.Close()
	primary.SetPeer(client, client.PeerDead, nil)
	primary.SetPrimary(true)

	if res := primary.DeliverNamed(rt, 0, "m1", []byte("x")); res != OpOK {
		t.Fatalf("DeliverNamed: %v", res)
	}
	if res := primary.DeleteNamed(rt, 0, "m1"); res != OpOK {
		t.Fatalf("DeleteNamed: %v", res)
	}
	// Resync path (ResyncObserved, EpochSet, LastResyncSet).
	if !primary.Resync(rt) {
		t.Fatal("Resync failed")
	}
	// Partition path (net outcome observation on the Lost leg, then
	// the replicate-failed counter).
	client.Partition(true)
	primary.DeliverNamed(rt, 0, "m2", []byte("y"))
	client.Partition(false)
	// Dead-peer path (AckAloneInc): sever the backup and latch the
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
