package mailboatd

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gfs"
)

// TestPickupUnderReadFaults drills Pickup's always-nil error contract:
// with EVERY ReadAt faulted short (rate 1 on the read-short class and
// nothing else), pickups must still return every delivered message
// byte-exactly, because the library's chunk loop retries short reads
// from the advanced offset instead of mistaking them for end-of-file.
func TestPickupUnderReadFaults(t *testing.T) {
	var rates [fault.NumClasses]uint64
	rates[fault.ReadShort] = 1
	a, err := NewWithOptions(t.TempDir(), Options{
		Users: 2,
		Seed:  7,
		Fault: &FaultOptions{Seed: 7, Rates: rates},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Multi-chunk bodies force several reads per message, each faulted.
	want := map[string]bool{}
	for i := 0; i < 4; i++ {
		msg := fmt.Sprintf("msg %d: %s\n", i, strings.Repeat("x", 3*gfs.ReadChunk+i))
		if err := a.Deliver(1, []byte(msg)); err != nil {
			t.Fatalf("deliver %d: %v", i, err)
		}
		want[msg] = true
	}

	msgs, err := a.Pickup(1)
	if err != nil {
		t.Fatalf("Pickup returned %v; its contract is a nil error", err)
	}
	defer a.Unlock(1)
	if len(msgs) != len(want) {
		t.Fatalf("picked up %d messages, want %d", len(msgs), len(want))
	}
	for _, m := range msgs {
		if !want[m.Contents] {
			t.Errorf("message %s corrupted under read faults (len %d)", m.ID, len(m.Contents))
		}
	}

	// The drill really did fault reads; otherwise this test proves nothing.
	faulted := 0
	for _, e := range a.FaultLog() {
		if e.Class == fault.ReadShort {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no read faults injected; drill misconfigured")
	}
}
