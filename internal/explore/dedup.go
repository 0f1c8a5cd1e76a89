package explore

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/history"
	"repro/internal/machine"
)

// Crash-boundary state dedup (DESIGN.md "Crash-boundary dedup"). The
// checker is stateless — volatile state (heap cells, thread
// continuations) is ordinary Go state it cannot enumerate — so the one
// point where a state's future is a function of observable data alone
// is the crash boundary: right after Machine.CrashReset, every thread
// is dead and all volatile state is gone by construction. Two
// executions whose crash boundaries agree on (durable device state,
// scenario-held crash-surviving state, recorded history, remaining
// crash budget, rand-policy call index) have identical suffix behavior,
// so once one prefix's recovery subtree is enumerated, other prefixes
// reaching the same boundary can be pruned.
//
// The table maps fingerprint -> hash of the owning choice prefix. The
// owner hash is what lets the claiming prefix revisit its own boundary
// on every re-execution while it enumerates the recovery subtree: same
// prefix, same owner, no prune. Fingerprints are 64-bit FNV-1a hashes,
// not full states — a hash collision could prune a distinct state
// (standard hash-compaction risk, vanishingly small at our table
// sizes); `-noreduce` and the self-check mode exist for exactly that
// doubt.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvBytes(h uint64, p []byte) uint64 {
	for _, c := range p {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func fnvInt(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// fpShards stripes the fingerprint table's locks so parallel workers
// rarely contend (fingerprints are hashes, so sharding by low bits is
// uniform).
const fpShards = 64

type fpShard struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

// fpTable is the lock-striped fingerprint table shared by all workers
// of one systematic search.
type fpTable struct {
	shards [fpShards]fpShard
}

func newFPTable() *fpTable {
	t := &fpTable{}
	for i := range t.shards {
		t.shards[i].m = map[uint64]uint64{}
	}
	return t
}

// claim records fp as owned by owner when unclaimed. It reports whether
// the caller may continue past the boundary: true for the first claim
// and for revisits by the same owner, false when another prefix already
// owns the subtree (prune).
func (t *fpTable) claim(fp, owner uint64) bool {
	s := &t.shards[fp&(fpShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.m[fp]
	if !ok {
		s.m[fp] = owner
		return true
	}
	return prev == owner
}

// size returns the number of distinct fingerprints claimed.
func (t *fpTable) size() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].m)
		t.shards[i].mu.Unlock()
	}
	return n
}

// dedupRun carries the dedup context through one execution of runOne.
// nil disables dedup (replay, minimize, stress, or -noreduce).
type dedupRun struct {
	table *fpTable
	s     *Scenario

	// pruned is set when the execution was cut at a crash boundary
	// another prefix owns.
	pruned bool
	// unfingerprintable is set when a registered device does not
	// implement machine.Fingerprinter; the run proceeds without dedup
	// and the report flags DedupActive=false.
	unfingerprintable bool
}

// appendHistory appends a canonical encoding of h: per event its kind
// and op ID, then the length-prefixed %v form of what the event adds —
// the operation at an Invoke, the response at a Return (whose operation
// the matching Invoke already fixed).
func appendHistory(b []byte, h history.History) []byte {
	b = machine.AppendUint64(b, uint64(len(h)))
	for _, e := range h {
		b = append(b, byte(e.Kind))
		if e.Kind == history.Crash {
			continue
		}
		b = machine.AppendUint64(b, uint64(e.ID))
		at := len(b)
		b = machine.AppendUint64(b, 0) // length, patched below
		if e.Kind == history.Invoke {
			b = fmt.Append(b, e.Op)
		} else {
			b = fmt.Append(b, e.Ret)
		}
		binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	}
	return b
}

// boundaryPrune is called immediately after Machine.CrashReset. It
// computes the crash-boundary fingerprint and reports whether this
// execution should stop here because the boundary's recovery subtree is
// owned by a different choice prefix.
func (dd *dedupRun) boundaryPrune(m *machine.Machine, w any, h *Harness, rec *scheduleRecorder, rpc *randPolicyChooser, crashesLeft int) bool {
	b := make([]byte, 0, 512)
	b, ok := m.AppendDurable(b)
	if !ok {
		dd.unfingerprintable = true
		return false
	}
	b = dd.s.Fingerprint(w, b)
	// Budgets and counters the suffix depends on: the crashes left, the
	// rand policy's call number, and the whole history so far (pending
	// operations included), over which refinement is judged. The step
	// count is not among them: MaxSteps bounds each era alone, so
	// nothing after a crash reads how many steps led to it.
	b = machine.AppendUint64(b, uint64(crashesLeft))
	calls := 0
	if rpc != nil {
		calls = rpc.calls
	}
	b = machine.AppendUint64(b, uint64(calls))
	b = appendHistory(b, h.rec.History())

	fp := fnvBytes(fnvOffset, b)
	owner := fnvOffset
	for _, c := range rec.choices {
		owner = fnvInt(owner, uint64(c))
	}
	if dd.table.claim(fp, owner) {
		return false
	}
	dd.pruned = true
	return true
}
