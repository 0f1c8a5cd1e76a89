package gfs

import (
	"sort"

	"repro/internal/machine"
)

// This file provides the canonical durable-state encoding the model
// checker's crash-boundary dedup table hashes (see DESIGN.md
// "Crash-boundary dedup"): Model's AppendDurable, as a registered
// machine.Device. The layers above it hold no crash-surviving state: a
// checked recovery boots a fresh stack, as the daemon does, and what a
// scenario's world keeps across the reboot (a fault layer's no-space
// latch, the policy's spent budget) is a device of its own.

// AppendDurable implements machine.Device. The encoding is canonical
// in the sense dedup needs: inode numbers are renamed to
// their first appearance in sorted (dir, name) order, so two file
// systems that differ only in inode allocation history — but have the
// same hard-link structure and contents — encode identically, while
// distinct link structures stay distinct. Open-descriptor state is
// volatile (dead at the crash boundary where fingerprints are taken)
// and `next` only picks unobservable fresh ids, so both are excluded.
func (fs *Model) AppendDurable(b []byte) []byte {
	b = machine.AppendBool(b, fs.buffered)
	dirNames := fs.layout()
	if fs.canon == nil {
		fs.canon = map[inodeID]uint64{}
	}
	canon := fs.canon
	clear(canon)
	b = machine.AppendUint64(b, uint64(len(dirNames)))
	for _, dir := range dirNames {
		d := fs.dirs[dir]
		b = machine.AppendString(b, dir)
		names := fs.sortedNames(d)
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
			names := fs.sortedNames(durable)
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

// sortedNames returns d's entry names in order, in a buffer the next
// call reuses.
func (fs *Model) sortedNames(d map[string]inodeID) []string {
	names := fs.names[:0]
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	fs.names = names
	return names
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
