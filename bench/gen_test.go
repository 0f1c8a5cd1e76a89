package main

import (
	"fmt"
	"testing"

	"repro/internal/postal"
)

func (o op) describe() string { return fmt.Sprintf("%s u%d m%d", o.kind, o.user, o.msg) }

func drawOps(seed int64, client, n int) []op {
	pool := newMsgPool(seed, 4)
	g := newOpGen(postal.Workload{Users: 1000, Skew: postal.SkewZipf}, opMix{deliver: 0.2, read: 0.7}, pool, seed, client)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestSameSeedSameSequencePerClient(t *testing.T) {
	const n = 500
	for client := 0; client < 3; client++ {
		a, b := drawOps(42, client, n), drawOps(42, client, n)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("client %d request %d: %s then %s on the same seed", client, i, a[i].describe(), b[i].describe())
			}
		}
	}
	differs := func(a, b []op) int {
		d := 0
		for i := range a {
			if a[i] != b[i] {
				d++
			}
		}
		return d
	}
	if d := differs(drawOps(42, 0, n), drawOps(43, 0, n)); d < n/4 {
		t.Errorf("seeds 42 and 43 differ in only %d of %d requests", d, n)
	}
	if d := differs(drawOps(42, 0, n), drawOps(42, 1, n)); d < n/4 {
		t.Errorf("clients 0 and 1 differ in only %d of %d requests", d, n)
	}
	kinds := map[opKind]int{}
	for _, o := range drawOps(42, 0, 2000) {
		kinds[o.kind]++
	}
	if kinds[opDeliver] < 300 || kinds[opRead] < 1200 || kinds[opDrain] < 100 {
		t.Errorf("mix 20/70/10 drew %v", kinds)
	}
}

func TestPoolVerifiesByteForByte(t *testing.T) {
	a, b := newMsgPool(7, 4), newMsgPool(7, 4)
	if len(a.msgs) != 4*len(sizeClasses) {
		t.Fatalf("pool has %d messages", len(a.msgs))
	}
	for i, m := range a.msgs {
		if string(m) != string(b.msgs[i]) {
			t.Fatalf("message %d differs between two pools of one seed", i)
		}
		if !postal.Verify(string(m)) {
			t.Errorf("message %d fails postal.Verify", i)
		}
		if got, ok := a.verify(string(m)); !ok || got != i {
			t.Errorf("verify(message %d) = %d, %v", i, got, ok)
		}
		if want := sizeClasses[i/4].bytes + len(hashHeader) + 17; len(m) != want {
			t.Errorf("message %d is %d bytes, want %d", i, len(m), want)
		}
		torn := string(m[:len(m)-2]) + "x\n"
		if _, ok := a.verify(torn); ok {
			t.Errorf("a message with one byte changed verified")
		}
	}
	if _, ok := a.verify("X-Hash: short"); ok {
		t.Error("a truncated header verified")
	}
}

func TestLedgerAudit(t *testing.T) {
	pool := newMsgPool(1, 2)
	l := newLedger(pool, 3)
	l.add(1, 0, 1)
	l.add(1, 0, 1)
	l.add(1, 3, 1)
	l.add(2, 5, 1)
	l.add(2, 5, -1)
	if lost, phantom := l.auditBox(1, []int{0, 3, 0}); lost != 0 || phantom != 0 {
		t.Errorf("exact scan: lost %d phantom %d", lost, phantom)
	}
	if lost, phantom := l.auditBox(1, []int{0, 4}); lost != 2 || phantom != 1 {
		t.Errorf("scan missing {0,3} with extra 4: lost %d phantom %d, want 2 and 1", lost, phantom)
	}
	if lost, phantom := l.auditBox(2, nil); lost != 0 || phantom != 0 {
		t.Errorf("delivered-then-deleted message still owed: lost %d phantom %d", lost, phantom)
	}
	msgs, bytes := l.liveBytes()
	if want := int64(2*len(pool.msgs[0]) + len(pool.msgs[3])); msgs != 3 || bytes != want {
		t.Errorf("liveBytes = %d msgs %d bytes, want 3 and %d", msgs, bytes, want)
	}
}
