package gfs

import (
	"fmt"
	"slices"

	"repro/internal/obs"
)

// This file is the one place the storage stack is composed. The daemon
// (mailboatd.NewWithOptions, over OS backends) and the checker
// (mailboat.Scenario's Setup, over Model backends) both call NewStack,
// so the layer order a scenario checks is the layer order that serves
// mail, outermost first:
//
//	Observed → Mirrored → per replica: Checksummed → Faulty → backend
//
// with every layer but the backend optional. Which combinations are
// legal is decided by StackSpec.Validate and nowhere else (DESIGN.md
// "Storage stack" prints the same table).

// StackSpec selects the optional layers of a stack.
type StackSpec struct {
	// Checksum frames every file in a checksum envelope: one
	// Checksummed per backend, UNDER the mirror, so each replica can
	// vouch for its own bytes and a rotten read heals from the peer.
	Checksum bool
	// Policy, when non-nil, puts a Faulty over each backend, all
	// sharing this one instance — a chooser budget therefore spans both
	// replicas. NeverPolicy{} leaves only the latches (FailStopNow, the
	// operator kill switch).
	Policy Policy
	// Metrics, when non-nil, wraps the stack in Observed (outermost, so
	// the histograms time what the library experiences, injected faults
	// and failovers included) and registers the gfs_* families the
	// layers below it report into.
	Metrics *obs.Registry
}

// mirrorMasks reports whether a mirror masks everything p can inject.
func mirrorMasks(p Policy) bool {
	c, chooser := p.(*ChooserPolicy)
	if !chooser {
		return p == nil || p == Policy(NeverPolicy{})
	}
	for op, on := range c.Eligible {
		if on && op != FaultFailStop && op != FaultCorrupt {
			return false
		}
	}
	return c.Eligible != nil
}

// Validate is the legality table: nil when the spec composes over
// replicas backends (1 = a single store, 2 = a mirror), of which
// deferred says whether they drop un-synced writes at a crash (the
// buffered and writeback models; the OS backend's crash behaviour is
// the kernel's, outside what a process can enumerate, so the daemon
// passes false and relies on the sync discipline). Each refusal names
// the two layers and the reason. It allocates nothing unless it
// refuses.
func (s StackSpec) Validate(replicas int, deferred bool) error {
	const refused = "gfs: %s and %s are mutually exclusive: %s"
	const deferredBackend = "a deferred-durability Model"
	switch {
	case replicas == 2 && !mirrorMasks(s.Policy):
		return fmt.Errorf(refused, "Mirrored", "a Faulty whose Policy injects more than fail-stop and corruption",
			"a mirror masks a dead or rotten replica only; any other failed leg (transient, no-space) reads as divergence and kicks the replica")
	case replicas == 2 && deferred:
		return fmt.Errorf(refused, "Mirrored", deferredBackend,
			"replica 0 stays a subset of replica 1 only while each leg is durable on return; a crash dropping un-synced writes breaks that")
	case s.Checksum && deferred:
		return fmt.Errorf(refused, "Checksummed", deferredBackend,
			"a crash tears an envelope's un-synced tail, and a torn frame verifies as corrupt: a crash would read as rot")
	}
	return nil
}

// BackendDirs returns the directory set to create each of a stack's
// backends with: the data directories, plus MirrorMetaDir under a
// mirror (replicas == 2).
func BackendDirs(dirs []string, replicas int) []string {
	if replicas < 2 {
		return dirs
	}
	return append([]string{MirrorMetaDir}, dirs...)
}

// Stack is a composed storage stack. Top is the System to run on — the
// outermost layer the spec asked for, or the bare backend when it
// asked for none; the accessors reach the layers beneath it.
type Stack struct {
	Top System

	faulty [2]*Faulty
	chk    [2]*Checksummed
	mirror *Mirrored
	policy Policy
}

// NewStack composes spec over one backend, or over two as a mirror
// (each created with BackendDirs); dirs are the data directories. An
// illegal spec is a programming error — callers with options to refuse
// call Validate first — and panics with Validate's message.
func NewStack(backends []System, dirs []string, spec StackSpec) *Stack {
	deferred := slices.ContainsFunc(backends, func(b System) bool {
		m, ok := b.(*Model)
		return ok && m.buffered
	})
	if err := spec.Validate(len(backends), deferred); err != nil {
		panic(err)
	}
	s := &Stack{policy: spec.Policy}
	var fsm *FSMetrics
	var integ *IntegrityMetrics
	if spec.Metrics != nil {
		fsm = NewFSMetrics(spec.Metrics)
		if spec.Checksum {
			integ = NewIntegrityMetrics(spec.Metrics)
		}
	}
	for i, b := range backends {
		if spec.Policy != nil {
			s.faulty[i] = NewFaulty(b, spec.Policy)
			s.faulty[i].Metrics = fsm
			b = s.faulty[i]
		}
		if spec.Checksum {
			s.chk[i] = NewChecksummed(b, dirs)
			s.chk[i].Metrics = integ
			b = s.chk[i]
		}
		if i == 0 {
			s.Top = b
		} else {
			s.mirror = NewMirrored(s.Top, b, dirs)
			s.mirror.Integrity = integ
			if spec.Metrics != nil {
				s.mirror.Metrics = NewMirrorMetrics(spec.Metrics)
			}
			s.Top = s.mirror
		}
	}
	if fsm != nil {
		s.Top = NewObserved(s.Top, fsm)
	}
	return s
}

// Faulty returns the fault layer over backend i; nil without a Policy.
func (s *Stack) Faulty(i int) *Faulty { return s.faulty[i] }

// Checksummed returns the envelope layer over backend i; nil without
// Checksum.
func (s *Stack) Checksummed(i int) *Checksummed { return s.chk[i] }

// Mirror returns the mirror; nil over a single backend.
func (s *Stack) Mirror() *Mirrored { return s.mirror }

// Detected sums the envelope layers' detection counters: how many
// rotten reads the stack has refused to serve.
func (s *Stack) Detected() uint64 { return s.chk[0].Detected() + s.chk[1].Detected() }

// AppendCheckerState appends the crash-surviving state the stack holds
// outside its backends, for crash-boundary dedup: the chooser policy's
// spent budget, each fault layer's latches, the mirror's control flags,
// and the envelope layers' detection counters (scenario assertions read
// Detected). The backends fingerprint themselves as machine devices.
func (s *Stack) AppendCheckerState(b []byte) []byte {
	if p, ok := s.policy.(*ChooserPolicy); ok {
		b = p.AppendState(b)
	}
	for _, f := range s.faulty {
		if f != nil {
			b = f.AppendCheckerState(b)
		}
	}
	if s.mirror != nil {
		b = s.mirror.AppendMirrorState(b)
	}
	for _, c := range s.chk {
		if c != nil {
			b = c.AppendIntegrityState(b)
		}
	}
	return b
}
