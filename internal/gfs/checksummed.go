package gfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/trace"
)

// ErrIntegrity is the loud-failure sentinel for checksum mismatches:
// VerifyFile wraps it in every corrupt verdict, and Checksummed.Open
// refuses (returns false) rather than expose rotten bytes.
var ErrIntegrity = errors.New("gfs: integrity check failed")

// The on-disk envelope. Every file written through Checksummed is a
// sequence of frames, each small enough to be one atomic inner Append:
//
//	frame    := kind(1) | payloadLen(4, BE) | sum(8, BE) | payload
//	sum      := FNV-64a( birthPath | frameIndex(8, BE) | kind(1) | payload )
//	header   := frame kind 0, payload = birthPath ("dir/name" at Create)
//	data     := frame kind 1, payload = caller bytes
//	seal     := frame kind 2, payload = plainLen(8, BE) | FNV-64a( birthPath | plaintext )
//
// The per-frame sum binds payload bytes to the file's birth path and
// the frame's position, so swapping frames between files or reordering
// them within one file is detected. The seal binds the whole plaintext
// and its length, so dropping trailing frames from a sealed file is
// detected too. What the envelope cannot detect is a wholesale swap
// with an older self-consistent file of the same birth path (a
// stale-generation swap): that needs an authority outside the file,
// which the mirror's generation markers provide (see DESIGN.md §4f).
//
// Frames align with inner Append boundaries, so a torn crash of the
// buffered model (any prefix of the unsynced tail at an append
// boundary) always leaves a clean frame prefix: an unsealed-but-valid
// file, never a false corruption verdict.
const (
	frameHeader byte = 0
	frameData   byte = 1
	frameSeal   byte = 2

	frameOverhead = 1 + 4 + 8
	// maxFramePayload keeps every frame within one atomic inner Append.
	maxFramePayload = MaxAppend - frameOverhead
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64a(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// fnv64a2 advances two independent FNV-64a chains over the same bytes
// in one traversal. Every payload byte feeds both its frame's sum and
// the file's seal; a single chain is bound by the multiplier's latency,
// so the second one rides in its shadow (about twice the throughput of
// two passes).
func fnv64a2(a, b uint64, p []byte) (uint64, uint64) {
	for _, c := range p {
		a = (a ^ uint64(c)) * fnvPrime64
		b = (b ^ uint64(c)) * fnvPrime64
	}
	return a, b
}

// frameStart returns a frame's sum chain as it stands before the
// payload, given pathSum, the chain after the birth path — which every
// frame sum and the seal sum share as their prefix.
func frameStart(pathSum, index uint64, kind byte) uint64 {
	var b [9]byte
	binary.BigEndian.PutUint64(b[:8], index)
	b[8] = kind
	return fnv64a(pathSum, b[:])
}

// frame builds one frame in place, advancing seal over the payload in
// the same traversal that sums the frame; only a data frame's caller
// keeps the advanced seal.
func frame(pathSum, index uint64, kind byte, payload []byte, seal uint64) ([]byte, uint64) {
	f := make([]byte, frameOverhead+len(payload))
	f[0] = kind
	binary.BigEndian.PutUint32(f[1:5], uint32(len(payload)))
	copy(f[frameOverhead:], payload)
	sum, seal := fnv64a2(frameStart(pathSum, index, kind), seal, payload)
	binary.BigEndian.PutUint64(f[5:13], sum)
	return f, seal
}

// Verdict classifies a file's envelope state.
type Verdict int

const (
	// VerdictOK: sealed, every checksum matches, no trailing bytes.
	VerdictOK Verdict = iota
	// VerdictUnsealed: a valid header and data-frame prefix with no seal
	// — an in-progress (or crash-abandoned) file. Not corruption: spool
	// leftovers look like this and recovery sweeps them without reading.
	VerdictUnsealed
	// VerdictCorrupt: the envelope is damaged — a checksum mismatch, a
	// torn frame, trailing bytes after the seal, or a seal that does not
	// cover the contents.
	VerdictCorrupt
	// VerdictAbsent: the file does not exist (or the backend is dead).
	VerdictAbsent
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictUnsealed:
		return "unsealed"
	case VerdictCorrupt:
		return "corrupt"
	case VerdictAbsent:
		return "absent"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// IntegrityError is one non-OK file found by VerifyAll/Scrub.
type IntegrityError struct {
	Dir, Name string
	Verdict   Verdict
}

// Error implements error, wrapping ErrIntegrity for corrupt verdicts.
func (e IntegrityError) Error() string {
	return fmt.Sprintf("%s/%s: %v (%s)", e.Dir, e.Name, ErrIntegrity, e.Verdict)
}

// Unwrap lets errors.Is(err, ErrIntegrity) work.
func (IntegrityError) Unwrap() error { return ErrIntegrity }

// Checksummed is the integrity middleware: every file written through
// it is wrapped in the self-describing checksum envelope above, and
// every Open verifies the whole envelope before exposing a single byte
// — a read of rotten data fails loudly (the open reports failure and
// the detection counter ticks) instead of returning garbage. It wraps
// either backend, or Faulty, and slots under Mirrored (one Checksummed
// per replica) so the mirror can tell "corrupt" apart from "absent"
// and heal from the peer.
type Checksummed struct {
	inner System
	dirs  []string

	// TrustReads is a deliberate seeded-bug hook for the checker suite
	// (mb/integrity-bug:trust-read): when set, Open strips the envelope
	// without verifying any checksum, best-effort, serving whatever
	// bytes it can decode. Never set it outside bug scenarios.
	TrustReads bool

	// Metrics, when non-nil, counts detections into
	// gfs_integrity_detected_total. Nil-safe: checker runs stay
	// metric-free.
	Metrics *IntegrityMetrics

	mu       sync.Mutex
	detected uint64
}

// NewChecksummed wraps inner, with dirs the fixed directory layout
// (needed by VerifyAll and Scrub).
func NewChecksummed(inner System, dirs []string) *Checksummed {
	return &Checksummed{inner: inner, dirs: append([]string{}, dirs...)}
}

// Inner returns the wrapped backend — also the raw, envelope-level view
// of the store, which Mirrored uses to copy files byte-identically
// between replicas.
func (c *Checksummed) Inner() System { return c.inner }

// Detected returns the number of integrity failures detected so far
// (failed opens and corrupt verify verdicts); 0 on a nil layer.
func (c *Checksummed) Detected() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detected
}

func (c *Checksummed) noteDetected(t T, dir, name string, v Verdict) {
	c.mu.Lock()
	c.detected++
	c.mu.Unlock()
	c.Metrics.detected()
	trace.Event(t, "integrity detected: %s/%s %s", dir, name, v)
	if mt, ok := t.(*machine.T); ok {
		mt.Tracef("fs.integrity %s/%s: %s", dir, name, v)
	}
}

type checksumFD struct {
	dir, name string
	closed    bool

	// Append mode. An open writer holds O(1) state, not the file: the
	// running seal chain and the plaintext length are all the seal needs.
	w         FD
	writing   bool
	sealed    bool
	nextFrame uint64
	writeOK   bool
	pathSum   uint64 // FNV chain after the birth path
	sealSum   uint64 // pathSum advanced over every appended byte
	plainLen  uint64

	// Read mode: the verified, decoded contents.
	data []byte
}

// NewLock implements System (passthrough; locks are volatile memory).
func (c *Checksummed) NewLock(t T, name string) Lock { return c.inner.NewLock(t, name) }

// Create implements System: it creates the inner file and writes the
// header frame recording the birth path. If the header cannot be
// written the inner file is removed and the create fails — a file
// without a header is indistinguishable from rot.
func (c *Checksummed) Create(t T, dir, name string) (FD, bool) {
	w, ok := c.inner.Create(t, dir, name)
	if !ok {
		return nil, false
	}
	path := []byte(dir + "/" + name)
	pathSum := fnv64a(fnvOffset64, path)
	header, _ := frame(pathSum, 0, frameHeader, path, 0)
	if !c.inner.Append(t, w, header) {
		c.inner.Close(t, w)
		c.inner.Delete(t, dir, name)
		return nil, false
	}
	return &checksumFD{
		dir: dir, name: name, w: w, writing: true,
		nextFrame: 1, writeOK: true, pathSum: pathSum, sealSum: pathSum,
	}, true
}

// Append implements System: the payload is split into data frames, each
// one atomic inner Append. Appending to a sealed file fails (the
// envelope is closed; start a new file).
func (c *Checksummed) Append(t T, fd FD, data []byte) bool {
	f := fd.(*checksumFD)
	if !f.writing || f.closed || f.sealed || !f.writeOK {
		return false
	}
	if len(data) > MaxAppend {
		panic("gfs: append exceeds atomic limit")
	}
	for len(data) > 0 {
		n := len(data)
		if n > maxFramePayload {
			n = maxFramePayload
		}
		fr, seal := frame(f.pathSum, f.nextFrame, frameData, data[:n], f.sealSum)
		if !c.inner.Append(t, f.w, fr) {
			f.writeOK = false
			return false
		}
		f.nextFrame++
		f.sealSum = seal
		f.plainLen += uint64(n)
		data = data[n:]
	}
	return true
}

// seal appends the seal frame (at most once).
func (c *Checksummed) seal(t T, f *checksumFD) bool {
	if f.sealed || !f.writeOK {
		return f.sealed
	}
	var payload [16]byte
	binary.BigEndian.PutUint64(payload[:8], f.plainLen)
	binary.BigEndian.PutUint64(payload[8:], f.sealSum)
	fr, _ := frame(f.pathSum, f.nextFrame, frameSeal, payload[:], 0)
	if !c.inner.Append(t, f.w, fr) {
		f.writeOK = false
		return false
	}
	f.nextFrame++
	f.sealed = true
	return true
}

// Sync implements System: the file is sealed first (a synced file is a
// published file) and the envelope then made durable. After a failed
// sync the file must be abandoned, per the System contract.
func (c *Checksummed) Sync(t T, fd FD) bool {
	f := fd.(*checksumFD)
	if !f.writing || f.closed {
		return false
	}
	if !c.seal(t, f) {
		return false
	}
	return c.inner.Sync(t, f.w)
}

// SyncDir implements System: the envelope adds nothing to directory
// metadata, so the barrier passes straight through.
func (c *Checksummed) SyncDir(t T, dir string) bool {
	return c.inner.SyncDir(t, dir)
}

// Close implements System. An append-mode file is sealed on close if it
// was not sealed by Sync; if sealing fails the file is left unsealed on
// disk, where reads will refuse it — the same outcome as an abandoned
// write.
func (c *Checksummed) Close(t T, fd FD) {
	f := fd.(*checksumFD)
	if f.closed {
		return
	}
	f.closed = true
	if f.writing {
		c.seal(t, f)
		c.inner.Close(t, f.w)
	}
}

// Open implements System: the whole envelope is read and verified up
// front; on any mismatch the open fails loudly (and the detection
// counter ticks) instead of exposing rotten bytes. Reads are then
// served from the verified plaintext. Only sealed files open — an
// unsealed file is either still being written or was torn by a crash,
// and in both cases its contents were never published.
func (c *Checksummed) Open(t T, dir, name string) (FD, bool) {
	// A backend that stops answering mid-file leaves a prefix, which
	// verification below classifies like any other torn envelope.
	raw, opened, _ := readAll(t, c.inner, dir, name)
	if !opened {
		return nil, false
	}
	if c.TrustReads {
		// Seeded bug: strip the envelope without verifying anything.
		return &checksumFD{dir: dir, name: name, data: decodeTrusting(raw)}, true
	}
	data, v := decodeVerify(raw, true)
	if v != VerdictOK {
		// Only rot counts as a detection; an unsealed file is an
		// in-progress or crash-abandoned write and simply never opens.
		if v == VerdictCorrupt {
			c.noteDetected(t, dir, name, v)
		}
		return nil, false
	}
	return &checksumFD{dir: dir, name: name, data: data}, true
}

// decodeVerify parses and verifies a full envelope, returning the
// plaintext and a verdict. The binding path is the BIRTH path recorded
// in the header frame, not the entry's current name — hard links
// (Deliver's spool-to-mailbox publish) change the name, never the
// bytes, so a linked file must keep verifying under its new name. The
// flip side is that a wholesale swap with a different self-consistent
// envelope is locally undetectable (see the envelope comment above:
// that needs an authority outside the file).
//
// Each payload byte is traversed once: the loop that verifies a frame's
// sum advances the seal chain beside it. With keep unset the plaintext
// is not materialised — the verdict is all the caller wants.
func decodeVerify(raw []byte, keep bool) ([]byte, Verdict) {
	if len(raw) == 0 {
		// Zero frames. A crash can tear a just-created file back to zero
		// bytes (the header append not yet synced), so emptiness is the
		// degenerate unsealed shape, not rot — there are no bytes to
		// serve wrongly.
		return nil, VerdictUnsealed
	}
	var plaintext []byte
	if keep {
		plaintext = make([]byte, 0, sealedLen(raw))
	}
	var index, pathSum, sealSum, plainLen uint64
	sealed := false
	for len(raw) > 0 {
		if sealed {
			return nil, VerdictCorrupt // trailing bytes after the seal
		}
		if len(raw) < frameOverhead {
			return nil, VerdictCorrupt // torn frame header
		}
		kind := raw[0]
		plen := binary.BigEndian.Uint32(raw[1:5])
		sum := binary.BigEndian.Uint64(raw[5:13])
		if uint64(len(raw)-frameOverhead) < uint64(plen) {
			return nil, VerdictCorrupt // torn payload
		}
		payload := raw[frameOverhead : frameOverhead+int(plen)]
		raw = raw[frameOverhead+int(plen):]
		if index == 0 {
			if kind != frameHeader {
				return nil, VerdictCorrupt // missing header
			}
			pathSum = fnv64a(fnvOffset64, payload)
			sealSum = pathSum
		} else if kind == frameHeader {
			return nil, VerdictCorrupt // duplicate header
		}
		got, seal := fnv64a2(frameStart(pathSum, index, kind), sealSum, payload)
		if got != sum {
			return nil, VerdictCorrupt
		}
		switch kind {
		case frameHeader:
		case frameData:
			sealSum = seal
			plainLen += uint64(plen)
			if keep {
				plaintext = append(plaintext, payload...)
			}
		case frameSeal:
			if len(payload) != 16 {
				return nil, VerdictCorrupt
			}
			if binary.BigEndian.Uint64(payload[:8]) != plainLen {
				return nil, VerdictCorrupt
			}
			if binary.BigEndian.Uint64(payload[8:]) != sealSum {
				return nil, VerdictCorrupt
			}
			sealed = true
		default:
			return nil, VerdictCorrupt // unknown frame kind
		}
		index++
	}
	if !sealed {
		return nil, VerdictUnsealed
	}
	return plaintext, VerdictOK
}

// sealedLen is the plaintext length a sealed envelope's last frame
// claims: the capacity to decode into, so the plaintext is allocated
// once. The claim is unverified at this point; one the file could not
// hold is ignored (the decode then refuses the file anyway).
func sealedLen(raw []byte) uint64 {
	if len(raw) < 16 {
		return 0
	}
	n := binary.BigEndian.Uint64(raw[len(raw)-16:])
	if n > uint64(len(raw)) {
		return 0
	}
	return n
}

// VerifyEnvelope classifies envelope bytes already in hand. The mirror's
// heal and resilver paths use it to judge the EXACT bytes they are about
// to copy: verifying the file again through the store would race the
// fault layer (silent corruption strikes whenever a file is opened, so a
// corruption injected at the re-read would slip past a verdict computed
// on an earlier one).
func VerifyEnvelope(raw []byte) Verdict {
	_, v := decodeVerify(raw, false)
	return v
}

// decodeTrusting is the TrustReads decoder: best-effort frame parsing
// with every checksum ignored — exactly the bug the trust-read scenario
// exists to catch.
func decodeTrusting(raw []byte) []byte {
	var plaintext []byte
	for len(raw) >= frameOverhead {
		kind := raw[0]
		plen := int(binary.BigEndian.Uint32(raw[1:5]))
		if len(raw)-frameOverhead < plen {
			plen = len(raw) - frameOverhead
		}
		if kind == frameData {
			plaintext = append(plaintext, raw[frameOverhead:frameOverhead+plen]...)
		}
		raw = raw[frameOverhead+plen:]
	}
	return plaintext
}

// ReadAt implements System, serving from the verified plaintext.
func (c *Checksummed) ReadAt(t T, fd FD, off, n uint64) []byte {
	f := fd.(*checksumFD)
	if f.writing || f.closed || off >= uint64(len(f.data)) {
		return nil
	}
	if rest := uint64(len(f.data)) - off; n > rest {
		n = rest // also keeps off+n from wrapping
	}
	out := make([]byte, n)
	copy(out, f.data[off:])
	return out
}

// Size implements System: the plaintext length (what the caller wrote,
// not the envelope's on-disk size).
func (c *Checksummed) Size(t T, fd FD) uint64 {
	f := fd.(*checksumFD)
	if f.writing {
		return f.plainLen
	}
	return uint64(len(f.data))
}

// Delete implements System (passthrough).
func (c *Checksummed) Delete(t T, dir, name string) bool {
	return c.inner.Delete(t, dir, name)
}

// Link implements System (passthrough). The envelope binds the birth
// path, not the current directory entry, so a linked file (Deliver's
// spool-to-mailbox publish) stays verifiable under its new name.
func (c *Checksummed) Link(t T, oldDir, oldName, newDir, newName string) bool {
	return c.inner.Link(t, oldDir, oldName, newDir, newName)
}

// List implements System (passthrough).
func (c *Checksummed) List(t T, dir string) []string { return c.inner.List(t, dir) }

// VerifyFile reads dir/name's raw envelope and classifies it. Corrupt
// verdicts tick the detection counter.
func (c *Checksummed) VerifyFile(t T, dir, name string) Verdict {
	raw, opened, _ := readAll(t, c.inner, dir, name)
	if !opened {
		return VerdictAbsent
	}
	v := VerifyEnvelope(raw)
	if v == VerdictCorrupt {
		c.noteDetected(t, dir, name, v)
	}
	return v
}

// VerifyAll verifies every file in every directory, returning the
// non-OK files (unsealed ones included; callers decide whether an
// unsealed file is expected where it was found).
func (c *Checksummed) VerifyAll(t T) []IntegrityError {
	var out []IntegrityError
	for _, dir := range c.dirs {
		for _, name := range c.inner.List(t, dir) {
			if v := c.VerifyFile(t, dir, name); v != VerdictOK {
				out = append(out, IntegrityError{Dir: dir, Name: name, Verdict: v})
			}
		}
	}
	return out
}

// Scrub implements Scrubber: a single-store scrub can detect but not
// heal (there is no redundant copy), so heal is ignored. Unsealed files
// are reported but not counted corrupt — an unsealed spool leftover is
// the normal shape of a crash-abandoned write.
func (c *Checksummed) Scrub(t T, heal bool) ScrubReport {
	rep := ScrubReport{}
	for _, dir := range c.dirs {
		for _, name := range c.inner.List(t, dir) {
			rep.Checked++
			switch c.VerifyFile(t, dir, name) {
			case VerdictCorrupt:
				rep.Corrupt++
				rep.Bad = append(rep.Bad, dir+"/"+name)
			case VerdictUnsealed:
				rep.Unsealed++
			}
		}
	}
	return rep
}

// AppendIntegrityState appends the detection counter for crash-boundary
// dedup: scenario assertions read Detected(), so two boundary states
// with different detection histories must not be merged.
func (c *Checksummed) AppendIntegrityState(b []byte) []byte {
	return binary.BigEndian.AppendUint64(b, c.Detected())
}

// AsChecksummed finds the stack's Checksummed; nil if it has none.
func AsChecksummed(sys System) *Checksummed { return asLayer[*Checksummed](sys) }
