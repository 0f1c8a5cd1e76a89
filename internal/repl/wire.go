package repl

// The replication wire format: one request frame, one response frame,
// hand-encoded (fixed little-endian header, length-prefixed strings) so
// the model transport and the TCP transport carry byte-identical
// messages and neither needs a codec dependency.

// Request kinds.
const (
	kDeliver      = byte(1) // apply a delivery under (epoch, seq)
	kDelete       = byte(2) // apply a delete under (epoch, seq)
	kResyncBegin  = byte(3) // start catch-up: wipe, expect puts for epoch
	kResyncPut    = byte(4) // one authoritative message during catch-up
	kResyncCommit = byte(5) // catch-up done: persist epoch, go live
	kPing         = byte(6) // liveness + epoch probe (and a delivery
	// opportunity for reordered frames in the model)
)

// Response statuses.
const (
	// StOK: applied, or already in the requested state (idempotent
	// duplicate) — the only status that advances the caller.
	StOK = byte(0)
	// StStaleEpoch: the request's epoch is older than the responder's.
	// The sender has been fenced: a resync or failover completed after
	// the frame was sent.
	StStaleEpoch = byte(1)
	// StNeedResync: the responder cannot apply in order (sequence gap,
	// or it is behind the request's epoch) and needs a catch-up resync.
	StNeedResync = byte(2)
	// StNameTaken: the delivery's name holds different contents; the
	// primary must pick another name. The sequence number was not
	// consumed.
	StNameTaken = byte(3)
	// StStoreFailed: the responder's store refused the apply; nothing
	// changed. Retryable with the same sequence number.
	StStoreFailed = byte(4)
	// StBadRequest: unparseable or out-of-protocol frame.
	StBadRequest = byte(5)
)

// statusName renders a status for traces and errors.
func statusName(st byte) string {
	switch st {
	case StOK:
		return "ok"
	case StStaleEpoch:
		return "stale-epoch"
	case StNeedResync:
		return "need-resync"
	case StNameTaken:
		return "name-taken"
	case StStoreFailed:
		return "store-failed"
	case StBadRequest:
		return "bad-request"
	}
	return "status(?)"
}

// request is one decoded replication request.
type request struct {
	kind  byte
	epoch uint64
	seq   uint64
	user  uint64
	name  string
	body  []byte
}

func putU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func getU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// encodeReq renders r as a frame.
func encodeReq(r request) []byte {
	b := make([]byte, 0, 1+8*4+len(r.name)+8+len(r.body))
	b = append(b, r.kind)
	b = putU64(b, r.epoch)
	b = putU64(b, r.seq)
	b = putU64(b, r.user)
	b = putU64(b, uint64(len(r.name)))
	b = append(b, r.name...)
	b = putU64(b, uint64(len(r.body)))
	b = append(b, r.body...)
	return b
}

// decodeReq parses a frame; ok is false on malformed input.
func decodeReq(b []byte) (r request, ok bool) {
	if len(b) < 1+8*4 {
		return r, false
	}
	r.kind = b[0]
	b = b[1:]
	r.epoch, b = getU64(b), b[8:]
	r.seq, b = getU64(b), b[8:]
	r.user, b = getU64(b), b[8:]
	nameLen := getU64(b)
	b = b[8:]
	// Subtract from the length read, never add to the one claimed: a
	// nameLen near 2^64 would wrap the sum past the check.
	if nameLen > uint64(len(b)) || uint64(len(b))-nameLen < 8 {
		return r, false
	}
	r.name, b = string(b[:nameLen]), b[nameLen:]
	bodyLen := getU64(b)
	b = b[8:]
	if uint64(len(b)) != bodyLen {
		return r, false
	}
	r.body = append([]byte(nil), b...)
	return r, true
}

// encodeResp renders a (status, responder epoch) response frame.
func encodeResp(st byte, epoch uint64) []byte {
	b := make([]byte, 0, 9)
	b = append(b, st)
	return putU64(b, epoch)
}

// decodeResp parses a response frame; a malformed one reads as
// StBadRequest so callers treat it as a non-advancing outcome.
func decodeResp(b []byte) (st byte, epoch uint64) {
	if len(b) < 9 {
		return StBadRequest, 0
	}
	return b[0], getU64(b[1:])
}
