package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gfs"
	"repro/internal/mailboat"
)

// This file is the benchmark's own tracing: span shims that sit at the
// public boundary between two layers and record, from outside, how long
// each call into the lower layer took. Nothing inside the program is
// instrumented (the choosing-metrics guide, §4: "record spans from the
// benchmark's own files, around the calls into each layer").
//
// A span is (layer, call, start, end, parent, request id, bytes). Spans
// live in chunked preallocated buffers — no allocation per span, no
// copying on growth — and are written to bench/out/trace-<workload>.jsonl
// when the traced run ends. A layer's SELF time is its span minus the
// part its child spans cover.

// layerID names the layer a span's time belongs to: the callee of the
// boundary the shim sits at.
type layerID uint8

const (
	lyBench layerID = iota // the benchmark's request wrapper; its self time is unattributed
	lySMTP                 // client-observed SMTP exchange (protocol + TCP)
	lyPOP3                 // client-observed POP3 session
	lyMailboatd
	lyMailboat
	lyLockWait // time blocked in a mailbox lock handed out by the stack
	lyObserved
	lyMirrored
	lyChecksummed
	lyFaulty
	lyOS
	numLayers
)

var layerNames = [numLayers]string{
	"bench", "smtp", "pop3", "mailboatd", "mailboat", "mailboat.lock",
	"gfs.observed", "gfs.mirrored", "gfs.checksummed", "gfs.faulty", "gfs.os",
}

// callID names the call a span covers.
type callID uint8

const (
	callDeliver callID = iota
	callSession        // a whole drain or read session (top span only)
	callPickup
	callDelete
	callUnlock
	callCreate
	callOpen
	callAppend
	callClose
	callReadAt
	callSize
	callSync
	callSyncDir
	callFSDelete
	callLink
	callList
	callAcquire
	numCalls
)

var callNames = [numCalls]string{
	"deliver", "session", "pickup", "delete", "unlock",
	"create", "open", "append", "close", "readat", "size", "sync", "syncdir",
	"delete", "link", "list", "acquire",
}

// span is one recorded call. 32 bytes, so a million of them is 32 MB.
type span struct {
	start, end int64 // ns since the recorder's base
	parent     int32 // index in the same buffer; -1 for a buffer-level root
	req        int32
	bytes      int32
	layer      layerID
	call       callID
}

const (
	spanChunkBits = 16
	spanChunk     = 1 << spanChunkBits
)

// recorder owns the clock and the buffers of one traced leg.
type recorder struct {
	base time.Time
	mu   sync.Mutex
	bufs []*spanBuf
	// curReq is the request a single-client protocol leg has in flight;
	// server-side shims, which run on the servers' goroutines, read it
	// to stamp their spans.
	curReq atomic.Int32
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	r.curReq.Store(-1)
	return r
}

// now is a monotonic-only clock read (time.Since on a monotonic base is
// one vDSO call, where time.Now is two).
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// newBuf returns a buffer for one goroutine's spans. shared buffers
// (server-side shims, touched by successive connection handlers) take a
// lock per span; thread-private ones do not.
func (r *recorder) newBuf(shared bool) *spanBuf {
	b := &spanBuf{rec: r, req: -1}
	if shared {
		b.mu = &sync.Mutex{}
	}
	r.mu.Lock()
	b.id = len(r.bufs)
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// spanBuf is one goroutine's span store plus its open-span stack. A
// nil *spanBuf records nothing, so untraced legs share the code path.
type spanBuf struct {
	rec    *recorder
	id     int
	mu     *sync.Mutex
	chunks [][]span
	n      int32
	stack  []int32
	req    int32 // current request; -1 = outside any request, record nothing
}

func (b *spanBuf) at(i int32) *span { return &b.chunks[i>>spanChunkBits][i&(spanChunk-1)] }

// enter opens a span and returns its index, or -1 when nothing is
// being recorded.
func (b *spanBuf) enter(layer layerID, call callID) int32 {
	if b == nil {
		return -1
	}
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.req = b.rec.curReq.Load()
	}
	if b.req < 0 {
		return -1
	}
	if int(b.n)>>spanChunkBits == len(b.chunks) {
		b.chunks = append(b.chunks, make([]span, spanChunk))
	}
	i := b.n
	b.n++
	parent := int32(-1)
	if k := len(b.stack); k > 0 {
		parent = b.stack[k-1]
	}
	b.stack = append(b.stack, i)
	*b.at(i) = span{parent: parent, req: b.req, layer: layer, call: call, start: b.rec.now()}
	return i
}

// exit closes the span enter returned.
func (b *spanBuf) exit(i int32, bytes int) {
	if i < 0 {
		return
	}
	end := b.rec.now()
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	s := b.at(i)
	s.end, s.bytes = end, int32(bytes)
	b.stack = b.stack[:len(b.stack)-1]
}

// benchT is the thread handle the benchmark passes down hand-built
// stacks: a seeded PRNG for name allocation (so the traced and the
// untraced leg allocate the same names) plus the goroutine's span
// buffer. It deliberately does not implement trace.Carrier.
type benchT struct {
	rng *rand.Rand
	buf *spanBuf
}

func newBenchT(seed int64, buf *spanBuf) *benchT {
	return &benchT{rng: rand.New(rand.NewSource(seed)), buf: buf}
}

// RandUint64 implements gfs.T.
func (t *benchT) RandUint64(bound uint64) uint64 { return uint64(t.rng.Int63n(int64(bound))) }

// bufOf finds the calling thread's span buffer.
func bufOf(t gfs.T) *spanBuf {
	if bt, ok := t.(*benchT); ok {
		return bt.buf
	}
	return nil
}

// spanFS is the storage-ladder shim: a gfs.System that forwards every
// call to inner and records a span labelled with inner's layer. It
// exposes Inner(), so gfs.AsScrubber / AsResilverer / AsFailStopper /
// AsChecksummed see through it exactly as they see through the
// repository's own middleware.
type spanFS struct {
	inner gfs.System
	layer layerID
	// wrapLocks makes the locks this shim hands out record their wait
	// time; set on the shim directly under mailboat only.
	wrapLocks bool
}

func newSpanFS(inner gfs.System, layer layerID) *spanFS {
	return &spanFS{inner: inner, layer: layer}
}

// Inner implements the gfs middleware unwrapping convention.
func (s *spanFS) Inner() gfs.System { return s.inner }

func (s *spanFS) NewLock(t gfs.T, name string) gfs.Lock {
	l := s.inner.NewLock(t, name)
	if s.wrapLocks {
		return &spanLock{inner: l}
	}
	return l
}

func (s *spanFS) Create(t gfs.T, dir, name string) (gfs.FD, bool) {
	b := bufOf(t)
	i := b.enter(s.layer, callCreate)
	fd, ok := s.inner.Create(t, dir, name)
	b.exit(i, 0)
	return fd, ok
}

func (s *spanFS) Open(t gfs.T, dir, name string) (gfs.FD, bool) {
	b := bufOf(t)
	i := b.enter(s.layer, callOpen)
	fd, ok := s.inner.Open(t, dir, name)
	b.exit(i, 0)
	return fd, ok
}

func (s *spanFS) Append(t gfs.T, fd gfs.FD, data []byte) bool {
	b := bufOf(t)
	i := b.enter(s.layer, callAppend)
	ok := s.inner.Append(t, fd, data)
	b.exit(i, len(data))
	return ok
}

func (s *spanFS) Close(t gfs.T, fd gfs.FD) {
	b := bufOf(t)
	i := b.enter(s.layer, callClose)
	s.inner.Close(t, fd)
	b.exit(i, 0)
}

func (s *spanFS) ReadAt(t gfs.T, fd gfs.FD, off, n uint64) []byte {
	b := bufOf(t)
	i := b.enter(s.layer, callReadAt)
	data := s.inner.ReadAt(t, fd, off, n)
	b.exit(i, len(data))
	return data
}

func (s *spanFS) Size(t gfs.T, fd gfs.FD) uint64 {
	b := bufOf(t)
	i := b.enter(s.layer, callSize)
	n := s.inner.Size(t, fd)
	b.exit(i, 0)
	return n
}

func (s *spanFS) Sync(t gfs.T, fd gfs.FD) bool {
	b := bufOf(t)
	i := b.enter(s.layer, callSync)
	ok := s.inner.Sync(t, fd)
	b.exit(i, 0)
	return ok
}

func (s *spanFS) SyncDir(t gfs.T, dir string) bool {
	b := bufOf(t)
	i := b.enter(s.layer, callSyncDir)
	ok := s.inner.SyncDir(t, dir)
	b.exit(i, 0)
	return ok
}

func (s *spanFS) Delete(t gfs.T, dir, name string) bool {
	b := bufOf(t)
	i := b.enter(s.layer, callFSDelete)
	ok := s.inner.Delete(t, dir, name)
	b.exit(i, 0)
	return ok
}

func (s *spanFS) Link(t gfs.T, oldDir, oldName, newDir, newName string) bool {
	b := bufOf(t)
	i := b.enter(s.layer, callLink)
	ok := s.inner.Link(t, oldDir, oldName, newDir, newName)
	b.exit(i, 0)
	return ok
}

func (s *spanFS) List(t gfs.T, dir string) []string {
	b := bufOf(t)
	i := b.enter(s.layer, callList)
	names := s.inner.List(t, dir)
	b.exit(i, 0)
	return names
}

// spanLock records how long Acquire blocked.
type spanLock struct{ inner gfs.Lock }

func (l *spanLock) Acquire(t gfs.T) {
	b := bufOf(t)
	i := b.enter(lyLockWait, callAcquire)
	l.inner.Acquire(t)
	b.exit(i, 0)
}

func (l *spanLock) Release(t gfs.T) { l.inner.Release(t) }

// mailStore is the union of smtp.Deliverer and pop3.Maildrop: what the
// protocol servers need from the store, and what mailboatd.Adapter
// provides.
type mailStore interface {
	Deliver(user uint64, msg []byte) error
	Pickup(user uint64) ([]mailboat.Message, error)
	Delete(user uint64, id string) error
	Unlock(user uint64)
}

// spanStore is the protocol-ladder shim (the issue's spanDeliverer and
// spanMaildrop in one value): it sits between smtp.Server / pop3.Server
// and the Adapter and records the Adapter's part of each request, on
// the servers' goroutines, into a shared buffer.
type spanStore struct {
	inner mailStore
	buf   *spanBuf
}

func (s *spanStore) Deliver(user uint64, msg []byte) error {
	i := s.buf.enter(lyMailboatd, callDeliver)
	err := s.inner.Deliver(user, msg)
	s.buf.exit(i, len(msg))
	return err
}

func (s *spanStore) Pickup(user uint64) ([]mailboat.Message, error) {
	i := s.buf.enter(lyMailboatd, callPickup)
	msgs, err := s.inner.Pickup(user)
	n := 0
	for _, m := range msgs {
		n += len(m.Contents)
	}
	s.buf.exit(i, n)
	return msgs, err
}

func (s *spanStore) Delete(user uint64, id string) error {
	i := s.buf.enter(lyMailboatd, callDelete)
	err := s.inner.Delete(user, id)
	s.buf.exit(i, 0)
	return err
}

func (s *spanStore) Unlock(user uint64) {
	i := s.buf.enter(lyMailboatd, callUnlock)
	s.inner.Unlock(user)
	s.buf.exit(i, 0)
}

// reqInfo is what the driving loop knows about one traced request.
type reqInfo struct {
	kind      opKind
	msgs      int   // messages picked up (sessions)
	userBytes int64 // message bytes delivered or picked up
}

// ladder is the analysis of one traced leg: per request class (deliver,
// pickup session) and per layer, call counts and self time; plus the
// boundary counts the ratio metrics need.
type ladder struct {
	reqs    [2]int64 // requests per class: 0 = deliver, 1 = pickup session
	topNs   [2]int64 // total top-span time per class
	selfNs  [2][numLayers]int64
	calls   [2][numLayers]int64
	present [numLayers]bool

	// Per (layer, call): span count and total duration, all classes.
	callCount [numLayers][numCalls]int64
	callNs    [numLayers][numCalls]int64
	// Per (layer, call): count and self time, for single-call metrics
	// such as mailboat.self_us_per_delete.
	callSelfNs [numLayers][numCalls]int64
	// Boundary traffic: for spans of layer L, bytes they carried, and
	// for their direct children, counts and bytes.
	inBytes  [numLayers][numCalls]int64
	outCalls [numLayers]int64
	outBytes [numLayers][numCalls]int64
	// deliverCalls[L][c]: calls of kind c at layer L inside deliver
	// requests (for syncs_per_deliver and friends).
	deliverCalls [numLayers][numCalls]int64
	pickupCalls  [numLayers][numCalls]int64

	msgsPicked     int64
	bytesPicked    int64
	bytesDelivered int64
	spans          int64
	uncontained    int64 // child spans not inside their parent: must be 0
}

func classOf(k opKind) int {
	if k == opDeliver {
		return 0
	}
	return 1
}

// analyze folds every buffer's spans into a ladder. reqs is indexed by
// request id. A buffer-level root span that is not the request's top
// span (a server-side shim's span) is adopted by the top span of the
// same request: its time is subtracted from the top span's self time
// and it must lie inside it.
func (r *recorder) analyze(reqs []reqInfo) *ladder {
	l := &ladder{}
	for _, q := range reqs {
		c := classOf(q.kind)
		l.reqs[c]++
		if c == 0 {
			l.bytesDelivered += q.userBytes
		} else {
			l.msgsPicked += int64(q.msgs)
			l.bytesPicked += q.userBytes
		}
	}
	// Pass 1: find each request's top span (the client-side root).
	type topRef struct {
		buf *spanBuf
		idx int32
	}
	tops := make([]topRef, len(reqs))
	for i := range tops {
		tops[i].idx = -1
	}
	isTop := func(s *span) bool {
		return s.parent < 0 && (s.layer == lyBench || s.layer == lySMTP || s.layer == lyPOP3)
	}
	for _, b := range r.bufs {
		for i := int32(0); i < b.n; i++ {
			if s := b.at(i); isTop(s) && int(s.req) < len(tops) {
				tops[s.req] = topRef{b, i}
			}
		}
	}
	// Pass 2: self times. childNs[i] accumulates the time of span i's
	// direct children within a buffer; adopted holds the same for
	// cross-buffer adoption, keyed by request.
	adopted := make([]int64, len(reqs))
	for _, b := range r.bufs {
		childNs := make([]int64, b.n)
		for i := int32(0); i < b.n; i++ {
			s := b.at(i)
			d := s.end - s.start
			if s.parent >= 0 {
				p := b.at(s.parent)
				childNs[s.parent] += d
				if s.start < p.start || s.end > p.end {
					l.uncontained++
				}
				l.outCalls[p.layer]++
				l.outBytes[p.layer][s.call] += int64(s.bytes)
			} else if !isTop(s) && int(s.req) < len(tops) && tops[s.req].idx >= 0 {
				t := tops[s.req]
				p := t.buf.at(t.idx)
				adopted[s.req] += d
				if s.start < p.start || s.end > p.end {
					l.uncontained++
				}
				l.outCalls[p.layer]++
			}
		}
		for i := int32(0); i < b.n; i++ {
			s := b.at(i)
			if int(s.req) >= len(reqs) {
				continue
			}
			c := classOf(reqs[s.req].kind)
			d := s.end - s.start
			self := d - childNs[i]
			if isTop(s) {
				l.topNs[c] += d
				// Adopted spans are subtracted below, once all buffers
				// have been seen.
			}
			l.spans++
			l.present[s.layer] = true
			l.selfNs[c][s.layer] += self
			l.calls[c][s.layer]++
			l.callCount[s.layer][s.call]++
			l.callNs[s.layer][s.call] += d
			l.callSelfNs[s.layer][s.call] += self
			l.inBytes[s.layer][s.call] += int64(s.bytes)
			if c == 0 {
				l.deliverCalls[s.layer][s.call]++
			} else {
				l.pickupCalls[s.layer][s.call]++
			}
		}
	}
	for q, ns := range adopted {
		if ns == 0 || tops[q].idx < 0 {
			continue
		}
		t := tops[q]
		s := t.buf.at(t.idx)
		l.selfNs[classOf(reqs[q].kind)][s.layer] -= ns
		l.callSelfNs[s.layer][s.call] -= ns
	}
	return l
}

// selfUsPer is layer's self time per request of class c, in µs.
func (l *ladder) selfUsPer(c int, layer layerID) float64 {
	if l.reqs[c] == 0 {
		return 0
	}
	return float64(l.selfNs[c][layer]) / 1e3 / float64(l.reqs[c])
}

// unattributed is the share of top-span time no layer accounts for:
// the request wrapper's own self time.
func (l *ladder) unattributed() float64 {
	top := l.topNs[0] + l.topNs[1]
	if top == 0 {
		return 0
	}
	return float64(l.selfNs[0][lyBench]+l.selfNs[1][lyBench]) / float64(top)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// table renders the ladder: one row per layer present, in stack order,
// per request class — calls per request, self µs per request, and the
// cumulative time of the rung and everything below it.
func (l *ladder) table(workload string) string {
	out := fmt.Sprintf("  ladder %s (%d spans)\n", workload, l.spans)
	for c, class := range []string{"deliver", "pickup session"} {
		if l.reqs[c] == 0 {
			continue
		}
		out += fmt.Sprintf("    %-16s %-18s %12s %14s %16s\n", class, "rung", "calls/op", "self us/op", "cumulative us/op")
		cum := make([]float64, numLayers+1)
		for ly := int(numLayers) - 1; ly >= 0; ly-- {
			cum[ly] = cum[ly+1] + l.selfUsPer(c, layerID(ly))
		}
		for ly := layerID(0); ly < numLayers; ly++ {
			if !l.present[ly] || l.calls[c][ly] == 0 {
				continue
			}
			out += fmt.Sprintf("    %-16s %-18s %12.2f %14.3f %16.3f\n", "", layerNames[ly],
				float64(l.calls[c][ly])/float64(l.reqs[c]), l.selfUsPer(c, ly), cum[ly])
		}
	}
	return out
}

// writeJSONL dumps every span of the leg, one JSON object per line.
func (r *recorder) writeJSONL(path, leg string, appendTo bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, b := range r.bufs {
		for i := int32(0); i < b.n; i++ {
			s := b.at(i)
			fmt.Fprintf(w, `{"leg":%q,"buf":%d,"id":%d,"parent":%d,"req":%d,"layer":%q,"call":%q,"start_ns":%d,"end_ns":%d,"bytes":%d}`+"\n",
				leg, b.id, i, s.parent, s.req, layerNames[s.layer], callNames[s.call], s.start, s.end, s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
