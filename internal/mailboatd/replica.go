package mailboatd

import (
	"net"
	"time"

	"repro/internal/mailboat"
	"repro/internal/netmodel"
	"repro/internal/repl"
	"repro/internal/trace"
)

// This file wires the replication protocol into the deployment: the
// same internal/repl code the model checker verifies, driven over the
// length-prefixed TCP transport. A replicated adapter routes Deliver
// and Delete through the protocol's remote-first client leg — an
// acknowledged operation is on the backup's disk before the SMTP 250
// goes out — while Pickup stays a local read of the primary's store.

// ReplicaOptions configures primary/backup replication. A deployment
// runs two mailboat processes: the primary (Primary true, PeerAddr
// pointing at the backup's ListenAddr) serves clients and replicates
// every mutation before acking; the backup (Primary false, ListenAddr
// set) serves the replication protocol and no client traffic.
type ReplicaOptions struct {
	// Primary: this node leads — it serves mail clients and replicates
	// to the peer before acknowledging.
	Primary bool
	// PeerAddr is the peer's replication listener. Required on the
	// primary; optional on the backup (where it is only a status probe).
	PeerAddr string
	// ListenAddr, when non-empty, serves this node's replication
	// endpoint. The backup role requires it.
	ListenAddr string
	// CallTimeout bounds one replication RPC (default 2s).
	CallTimeout time.Duration
	// PingEvery is the primary's peer-liveness probe period (default
	// 1s). The probe is what re-admits a restarted backup: a successful
	// dial clears the refused-streak verdict, and a behind answer (the
	// backup's volatile apply cursor trails our sequence space) triggers
	// the catch-up resync directly — an idle primary re-syncs a rejoined
	// backup within one ping period, it does not wait for traffic.
	PingEvery time.Duration
	// MaxCallRetries and RetryBackoff tune the client leg (zero values
	// use the repl defaults, except RetryBackoff which defaults to 25ms
	// here — a deployment must pace its retries).
	MaxCallRetries int
	RetryBackoff   time.Duration
}

// startReplica builds the node, transport, and background loops. The
// caller validated the options (replica mode runs on a single bare
// backend) and built the store with repl.ReplDirs so the epoch
// meta-directory exists.
func (a *Adapter) startReplica(o Options) error {
	ro := o.Replica
	backoff := ro.RetryBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	rcfg := repl.Config{
		MaxCallRetries: ro.MaxCallRetries,
		RetryBackoff:   backoff,
	}
	if o.Metrics != nil {
		rcfg.Metrics = repl.NewMetrics(o.Metrics)
	}
	id := 1
	if ro.Primary {
		id = 0
	}
	a.node = repl.NewNode(a, id, a.mb, a.stack.Top, rcfg)
	if ro.PeerAddr != "" {
		a.replClient = &repl.TCPClient{Addr: ro.PeerAddr, Timeout: ro.CallTimeout}
		if o.Metrics != nil {
			a.replClient.Metrics = netmodel.NewNetMetrics(o.Metrics)
		}
		a.node.SetPeer(a.replClient, a.replClient.PeerDead, nil)
	}
	a.node.SetPrimary(ro.Primary)
	if ro.ListenAddr != "" {
		lis, err := net.Listen("tcp", ro.ListenAddr)
		if err != nil {
			return err
		}
		a.replSrv = repl.NewServer(a.node, a)
		a.replWG.Add(1)
		go func() {
			defer a.replWG.Done()
			a.replSrv.Serve(lis)
		}()
	}
	if ro.Primary && a.replClient != nil {
		// Boot-time catch-up: the backup's apply cursor is volatile, so
		// a fresh primary cannot assume the backup is current. Best
		// effort — a failed attempt leaves the pair degraded (visible on
		// /healthz) and the first replicated operation retries through
		// the need-resync path.
		a.node.Resync(a)
		every := ro.PingEvery
		if every <= 0 {
			every = time.Second
		}
		stop := make(chan struct{})
		a.replStop = stop
		a.replWG.Add(1)
		go func() {
			defer a.replWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					// A behind verdict (StNeedResync) means the backup
					// answered but its apply cursor trails ours — a
					// rejoined node with a stale store. Resync it now;
					// waiting for the next replicated operation would
					// leave the pair reporting healthy over a stale
					// backup for as long as the primary stays idle.
					if _, behind := a.node.PingCheck(a); behind {
						a.node.Resync(a)
					}
				}
			}
		}()
	}
	return nil
}

// stopReplica tears the replication machinery down (Close calls it).
func (a *Adapter) stopReplica() {
	if a.replStop != nil {
		close(a.replStop)
		a.replStop = nil
	}
	if a.node != nil {
		a.node.Shutdown()
	}
	if a.replSrv != nil {
		a.replSrv.Close()
	}
	if a.replClient != nil {
		a.replClient.Close()
	}
	a.replWG.Wait()
}

// ReplNode exposes the protocol engine (nil when not replicated) —
// drills and tests reach the resync and status surface through it.
func (a *Adapter) ReplNode() *repl.Node { return a.node }

// ReplTransport exposes the TCP client leg (nil when not replicated or
// no peer configured) — the partition drill's gate lives on it.
func (a *Adapter) ReplTransport() *repl.TCPClient { return a.replClient }

// ReplHealth reports the replication health snapshot (nil when the
// adapter does not run replicated) — what /healthz serves. Degraded
// means the pair cannot currently tolerate losing this node: the
// primary cannot reach its backup (partitioned, refused, or fenced
// dead — it is acknowledging alone or about to refuse), or a catch-up
// resync is still rebuilding state.
func (a *Adapter) ReplHealth() *repl.Health {
	if a.node == nil {
		return nil
	}
	st := a.node.Status()
	h := &repl.Health{Status: st, PeerReachable: true}
	if a.replClient != nil {
		h.PeerReachable = a.replClient.Reachable()
	}
	h.Degraded = st.Resyncing ||
		(st.Role == "primary" && a.replClient != nil && !h.PeerReachable)
	return h
}

// deliverReplicated routes one delivery through the protocol:
// replicate to the backup under (epoch, seq), apply locally, ack —
// drawing fresh names on collision exactly like the library's own
// loop. Every non-OK outcome surfaces as ErrTransient (SMTP 451): on
// OpFailed the mailbox pair is untouched; on OpIndeterminate the
// operation is durable on the backup but this store is dying — it is
// counted, never re-executed here, and the catch-up resync reconciles
// the pair.
func (a *Adapter) deliverReplicated(sp *trace.Span, user uint64, msg []byte) error {
	t := a.thread(sp)
	for try := 0; try < mailboat.NameAttempts; try++ {
		name := mailboat.MsgName(a.RandUint64(a.cfg.RandBound))
		switch a.node.DeliverNamed(t, user, name, msg) {
		case repl.OpOK:
			a.ops.deliverOK.Inc()
			return nil
		case repl.OpNameTaken:
			continue // collision: redraw
		default:
			a.ops.deliverTransient.Inc()
			return ErrTransient
		}
	}
	a.ops.deliverTransient.Inc()
	return ErrTransient
}

// deleteReplicated routes one delete through the protocol.
func (a *Adapter) deleteReplicated(sp *trace.Span, user uint64, id string) error {
	if a.node.DeleteNamed(a.thread(sp), user, id) != repl.OpOK {
		a.ops.deleteTransient.Inc()
		return ErrTransient
	}
	a.ops.deleteOK.Inc()
	return nil
}
