// Package disk models the disk substrates used by the paper's
// crash-safety examples (Table 3): a single-disk semantics and a
// two-disk semantics in which a disk may fail permanently and reads on a
// failed disk report failure (Figure 1's replication substrate).
//
// Blocks are modeled as uint64 values, which keeps specification states
// small and hashable for the refinement checker while preserving the
// structure of the paper's block-granularity atomic writes. Disks are
// durable devices: a crash preserves block contents and the
// failed/healthy status of each disk.
package disk

import (
	"repro/internal/machine"
)

// Block is the content of one disk block.
type Block = uint64

// Disk is one physical disk attached to a machine. Reads and writes are
// block-granularity and atomic (one machine step each).
type Disk struct {
	name    string
	blocks  []Block
	failed  bool
	mayFail bool
	m       *machine.Machine
}

// New creates a disk of the given size (in blocks), zero-filled, and
// registers it as a durable device on m. If mayFail is true, the machine
// Chooser is offered the option to fail the disk permanently at every
// read (tag "diskfail"), modeling the two-disk semantics' fail-stop
// disks.
func New(m *machine.Machine, name string, size int, mayFail bool) *Disk {
	d := &Disk{name: name, blocks: make([]Block, size), mayFail: mayFail, m: m}
	m.RegisterDevice(d)
	return d
}

// Crash implements machine.Device: block contents and failure status are
// durable, so a machine crash changes nothing here.
func (d *Disk) Crash() {}

// AppendDurable implements machine.Fingerprinter: a disk's durable
// state is its name, its failure latch, and its block contents.
func (d *Disk) AppendDurable(b []byte) []byte {
	b = machine.AppendString(b, d.name)
	b = machine.AppendBool(b, d.failed)
	b = machine.AppendUint64(b, uint64(len(d.blocks)))
	for _, v := range d.blocks {
		b = machine.AppendUint64(b, v)
	}
	return b
}

// Size returns the number of blocks.
func (d *Disk) Size() uint64 { return uint64(len(d.blocks)) }

// Name returns the disk's name (for traces).
func (d *Disk) Name() string { return d.name }

// Failed reports whether the disk has failed. For harness assertions.
func (d *Disk) Failed() bool { return d.failed }

// Fail marks the disk permanently failed (harness-controlled fault
// injection; distinct from chooser-driven failure).
func (d *Disk) Fail() { d.failed = true }

// Read reads block a. One atomic step. It returns ok=false if the disk
// has failed (the paper's read-failure model). Reading out of bounds is
// undefined behaviour.
func (d *Disk) Read(t *machine.T, a uint64) (Block, bool) {
	t.Step("disk_read")
	d.checkBounds(t, "read", a)
	if d.mayFail && !d.failed {
		if t.Machine() != d.m {
			t.Failf("disk %s used from a different machine", d.name)
		}
		// Offer the chooser the option to fail the disk now.
		if t.Choose(2, "diskfail") == 1 {
			d.failed = true
			if t.Tracing() {
				t.Tracef("disk %s FAILED", d.name)
			}
		}
	}
	if d.failed {
		if t.Tracing() {
			t.Tracef("disk_read %s[%d] -> failed", d.name, a)
		}
		return 0, false
	}
	v := d.blocks[a]
	if t.Tracing() {
		t.Tracef("disk_read %s[%d] -> %d", d.name, a, v)
	}
	return v, true
}

// Write writes block a. One atomic step, atomic with respect to crashes
// (a crash either leaves the old value or the new one, never a torn
// block). Writes to a failed disk are silently dropped, and writes out
// of bounds are undefined behaviour.
func (d *Disk) Write(t *machine.T, a uint64, v Block) {
	t.Step("disk_write")
	d.checkBounds(t, "write", a)
	if d.failed {
		if t.Tracing() {
			t.Tracef("disk_write %s[%d] dropped (failed)", d.name, a)
		}
		return
	}
	d.blocks[a] = v
	if t.Tracing() {
		t.Tracef("disk_write %s[%d] = %d", d.name, a, v)
	}
}

// Peek returns block a without taking a machine step. It is for
// harnesses and invariant checks between eras, never for modeled code.
func (d *Disk) Peek(a uint64) Block { return d.blocks[a] }

func (d *Disk) checkBounds(t *machine.T, op string, a uint64) {
	if a >= uint64(len(d.blocks)) {
		t.Failf("disk %s: %s out of bounds: address %d, size %d", d.name, op, a, len(d.blocks))
	}
}
