package history_test

import (
	"testing"

	"repro/internal/history"
	"repro/internal/mailboat"
)

// deliverThenPickup is Deliver(0, "hello") acked, then Pickup(0)
// returning got.
func deliverThenPickup(got []mailboat.Message) history.History {
	d, p := mailboat.OpDeliver{User: 0, Msg: "hello"}, mailboat.OpPickup{User: 0}
	return history.History{
		{Kind: history.Invoke, ID: 0, Op: d},
		{Kind: history.Return, ID: 0, Op: d, Ret: true},
		{Kind: history.Invoke, ID: 1, Op: p},
		{Kind: history.Return, ID: 1, Op: p, Ret: got},
	}
}

// TestVerdictMemoTellsPickupsApart is the memo's negative control: two
// histories that differ only in what one Pickup returned — which the
// hash does not look at, so they share a bucket — are checked in turn
// on one Checker. The first is accepted and memoized; the second, whose
// Pickup returned a body nobody delivered, must still be rejected.
func TestVerdictMemoTellsPickupsApart(t *testing.T) {
	sp := mailboat.Spec(mailboat.Config{Users: 1, RandBound: 2})
	right := deliverThenPickup([]mailboat.Message{{ID: mailboat.MsgName(0), Contents: "hello"}})
	wrong := deliverThenPickup([]mailboat.Message{{ID: mailboat.MsgName(0), Contents: "hellp"}})
	if history.HistoryHash(right) != history.HistoryHash(wrong) {
		t.Fatal("the two histories hash apart: the control no longer exercises exact equality")
	}
	var c history.Checker
	for i := 0; i < 2; i++ {
		if res := c.Check(sp, right, history.Options{}); !res.OK {
			t.Fatalf("check %d of the right history: %s", i, res.Reason)
		}
	}
	if c.Reused() != 1 {
		t.Fatalf("the right history, checked twice, was reused %d times", c.Reused())
	}
	if res := c.Check(sp, wrong, history.Options{}); res.OK {
		t.Fatal("a Pickup of a body nobody delivered was accepted after the right history was memoized")
	}
	if c.Reused() != 1 {
		t.Fatal("the wrong history was answered from the memo")
	}
}

// TestVerdictMemoIsPerSpec: a history accepted against one spec is
// judged afresh against another. An acked delivery lost at a crash is
// allowed by the buffered contract and refused by the durable one, in
// either order, however often the Checker goes back and forth.
func TestVerdictMemoIsPerSpec(t *testing.T) {
	cfg := mailboat.Config{Users: 1, RandBound: 2}
	durable, buffered := mailboat.Spec(cfg), mailboat.PrefixSpec(cfg)
	d, p := mailboat.OpDeliver{User: 0, Msg: "hello"}, mailboat.OpPickup{User: 0}
	lost := history.History{
		{Kind: history.Invoke, ID: 0, Op: d},
		{Kind: history.Return, ID: 0, Op: d, Ret: true},
		{Kind: history.Crash},
		{Kind: history.Invoke, ID: 1, Op: p},
		{Kind: history.Return, ID: 1, Op: p, Ret: []mailboat.Message{}},
	}
	var c history.Checker
	for i := 0; i < 3; i++ {
		if res := c.Check(buffered, lost, history.Options{}); !res.OK {
			t.Fatalf("round %d: the buffered contract refuses a lost acked delivery: %s", i, res.Reason)
		}
		if res := c.Check(durable, lost, history.Options{}); res.OK {
			t.Fatalf("round %d: the durable contract accepts a lost acked delivery", i)
		}
	}
	if c.Reused() != 0 {
		t.Fatalf("%d verdicts were reused across a change of spec", c.Reused())
	}
	c.Check(buffered, lost, history.Options{})
	c.Check(buffered, lost, history.Options{})
	if c.Reused() != 1 {
		t.Fatalf("a history checked twice in a row against one spec was reused %d times", c.Reused())
	}
}
