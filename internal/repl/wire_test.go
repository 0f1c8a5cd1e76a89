package repl

import (
	"bytes"
	"math"
	"testing"
)

// frame hand-assembles a request frame whose length fields may lie.
func frame(nameLen uint64, name string, bodyLen uint64, body string) []byte {
	b := append([]byte{kDeliver}, make([]byte, 8*3)...)
	b = putU64(b, nameLen)
	b = append(b, name...)
	b = putU64(b, bodyLen)
	return append(b, body...)
}

// TestFrameDecodeRejectsMalformed feeds decodeReq frames as a peer —
// or anything else that reaches the replication port — could send
// them: each malformed one must decode to ok == false without a panic
// (a wrapping name length used to slice out of range), and every valid
// one must round-trip.
func TestFrameDecodeRejectsMalformed(t *testing.T) {
	valid := encodeReq(request{kind: kDeliver, epoch: 3, seq: 9, user: 1, name: "msg7", body: []byte("hello")})
	malformed := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"truncated header", valid[:1+8*3]},
		{"header without name length", valid[:1+8*4-1]},
		{"name past the end", frame(5, "msg7", 0, "")},
		{"name leaves no body length", frame(4, "msg7", 0, "")[:1+8*4+4+7]},
		{"body past the end", frame(4, "msg7", 6, "hello")},
		{"body short of its length", frame(4, "msg7", 4, "hello")},
		{"trailing bytes", append(bytes.Clone(valid), 0)},
		{"wrapping name length", frame(math.MaxUint64, "msg7", 5, "hello")},
		{"name length wrapping to 0", frame(math.MaxUint64-7, "msg7", 5, "hello")},
		{"name length wrapping to 3", frame(math.MaxUint64-4, "msg7", 5, "hello")},
		{"name length of the whole rest", frame(4+8+5, "msg7", 5, "hello")},
	}
	for _, c := range malformed {
		t.Run(c.name, func(t *testing.T) {
			if r, ok := decodeReq(c.frame); ok {
				t.Fatalf("decoded %+v from a malformed frame", r)
			}
		})
	}
	for _, want := range []request{
		{kind: kPing},
		{kind: kDeliver, epoch: 3, seq: 9, user: 1, name: "msg7", body: []byte("hello")},
		{kind: kResyncPut, epoch: math.MaxUint64, seq: 1, user: 2, name: "", body: []byte{}},
		{kind: kDelete, epoch: 1, seq: 2, user: 0, name: "msg0"},
	} {
		got, ok := decodeReq(encodeReq(want))
		if !ok || got.kind != want.kind || got.epoch != want.epoch || got.seq != want.seq ||
			got.user != want.user || got.name != want.name || !bytes.Equal(got.body, want.body) {
			t.Errorf("round trip of %+v: got %+v, ok=%v", want, got, ok)
		}
	}
}
