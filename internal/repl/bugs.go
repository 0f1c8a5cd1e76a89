package repl

import (
	"repro/internal/gfs"
	"repro/internal/trace"
)

// This file holds the replication protocol's seeded bugs, the checker's
// mb/repl-bug rows; Scenario reaches each only through its Variant row
// (scenarios.go). Each composes the production stages of client.go and
// forges the one token it has not earned. This is the only file of the
// package allowed to forge a token.

// deliverAckBeforeBackup checks the name exactly as DeliverNamed does,
// then publishes locally and acks without waiting for the backup
// (mb/repl-bug:ack-before-backup). The backup catches up... unless the
// primary dies first, and then a failover serves a mailbox missing an
// acknowledged message. A local failure is a definite no: the backup
// was never told.
func (nd *Node) deliverAckBeforeBackup(t gfs.T, user uint64, name string, msg []byte, _ fenceStage) OpResult {
	sp := trace.Enter(t, "repl.deliver")
	defer trace.Exit(t, sp)
	nd.lock.Acquire(t)
	defer nd.lock.Release(t)
	if _, present := nd.mb.ReadMessage(t, user, name); present {
		return OpNameTaken
	}
	// BUG: the replicated token is forged; nothing reached the backup.
	if !nd.localDeliverMust(t, user, name, msg, replicated{}) {
		return OpFailed
	}
	return OpOK
}

// skipFence is a fence that keeps the current epoch
// (mb/repl-bug:resync-skips-epoch): the catch-up resets the sequence
// space and installs the snapshot fine, but every pre-resync frame still
// in flight carries a VALID epoch, so a reordered replicate frame
// landing after the catch-up walks straight through the gate and
// resurrects deleted state.
func skipFence(nd *Node, _ gfs.T) (fenced, bool) {
	nd.setSeq(0)
	// BUG: the fenced token is forged; no epoch was bumped or persisted.
	return fenced{nd.epoch}, true
}
