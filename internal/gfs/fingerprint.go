package gfs

import (
	"sort"

	"repro/internal/machine"
)

// This file provides the canonical durable-state encodings the model
// checker's crash-boundary dedup table hashes (see DESIGN.md
// "Crash-boundary dedup").
// Model implements machine.Fingerprinter directly (it is a registered
// device); Faulty, fault.Chooser and Mirrored are middleware held by
// the scenario's world, not devices, so they expose Append* helpers the
// scenario's explore.Scenario.Fingerprint hook composes.

// AppendDurable implements machine.Fingerprinter. The encoding is
// canonical in the sense dedup needs: inode numbers are renamed to
// their first appearance in sorted (dir, name) order, so two file
// systems that differ only in inode allocation history — but have the
// same hard-link structure and contents — encode identically, while
// distinct link structures stay distinct. Open-descriptor state is
// volatile (dead at the crash boundary where fingerprints are taken)
// and `next` only picks unobservable fresh ids, so both are excluded.
func (fs *Model) AppendDurable(b []byte) []byte {
	b = machine.AppendBool(b, fs.buffered)
	dirNames := make([]string, 0, len(fs.dirs))
	for d := range fs.dirs {
		dirNames = append(dirNames, d)
	}
	sort.Strings(dirNames)
	canon := map[inodeID]uint64{}
	b = machine.AppendUint64(b, uint64(len(dirNames)))
	for _, dir := range dirNames {
		d := fs.dirs[dir]
		b = machine.AppendString(b, dir)
		names := make([]string, 0, len(d))
		for n := range d {
			names = append(names, n)
		}
		sort.Strings(names)
		b = machine.AppendUint64(b, uint64(len(names)))
		for _, n := range names {
			b = machine.AppendString(b, n)
			b = fs.appendInode(b, canon, d[n])
		}
	}
	// Under writeback the crash-reachable states also depend on each
	// directory's durable view and its pending operation log (any prefix
	// of which may survive), so both are part of the canonical state.
	// Inodes referenced only there (e.g. created then deleted before a
	// SyncDir) get their contents encoded at first reference.
	b = machine.AppendBool(b, fs.writeback)
	if fs.writeback {
		for _, dir := range dirNames {
			b = machine.AppendString(b, dir)
			durable := fs.durableDirs[dir]
			names := make([]string, 0, len(durable))
			for n := range durable {
				names = append(names, n)
			}
			sort.Strings(names)
			b = machine.AppendUint64(b, uint64(len(names)))
			for _, n := range names {
				b = machine.AppendString(b, n)
				b = fs.appendInode(b, canon, durable[n])
			}
			ops := fs.dirPending[dir]
			b = machine.AppendUint64(b, uint64(len(ops)))
			for _, op := range ops {
				b = machine.AppendBool(b, op.add)
				b = machine.AppendString(b, op.name)
				if op.add {
					b = fs.appendInode(b, canon, op.ino)
				}
			}
		}
	}
	return b
}

// appendInode encodes one inode reference: its canonical id plus, on
// every reference, its contents and (when buffered) its synced prefix
// and pending append boundaries — the un-synced write state that
// determines which post-crash contents are reachable.
func (fs *Model) appendInode(b []byte, canon map[inodeID]uint64, ino inodeID) []byte {
	id, seen := canon[ino]
	if !seen {
		id = uint64(len(canon))
		canon[ino] = id
	}
	b = machine.AppendUint64(b, id)
	b = machine.AppendBytes(b, fs.inodes[ino])
	if fs.buffered {
		b = machine.AppendUint64(b, uint64(fs.synced[ino]))
		b = machine.AppendUint64(b, uint64(len(fs.pending[ino])))
		for _, p := range fs.pending[ino] {
			b = machine.AppendUint64(b, uint64(p))
		}
	}
	return b
}

// AppendCheckerState appends the Faulty state that a *checker-driven*
// (fault.Chooser) fault stack's future behavior depends on: the
// durable latches (permanent fail-stop, disk-full). The per-class
// decision counters are deliberately excluded — a Chooser ignores
// indices (it decides through the machine's chooser under a budget), so
// two executions whose counters differ but whose latches agree behave
// identically from here. Seeded policies DO depend on indices;
// scenarios using SeededPolicy under the checker must not enable dedup
// (leave Fingerprint nil).
func (f *Faulty) AppendCheckerState(b []byte) []byte {
	b = machine.AppendBool(b, f.failStopped.Load())
	return machine.AppendBool(b, f.noSpace.Load())
}

// AppendMirrorState appends the mirror's crash-surviving control state:
// per-replica failed/stale latches and the resilvering flag (a crash
// can land mid-resilver). Failovers and metrics are observability only
// and excluded.
func (m *Mirrored) AppendMirrorState(b []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	b = machine.AppendBool(b, m.failed[0])
	b = machine.AppendBool(b, m.failed[1])
	b = machine.AppendBool(b, m.stale[0])
	b = machine.AppendBool(b, m.stale[1])
	return machine.AppendBool(b, m.resilvering)
}
