package netsim

import (
	"errors"
	"fmt"
	"testing"
)

func faultNet(t *testing.T, seed int64, ids ...string) (*Network, *FaultPlan, map[string]*int) {
	t.Helper()
	n := New(seed)
	got := make(map[string]*int)
	for _, id := range ids {
		id := id
		c := new(int)
		got[id] = c
		if err := n.Register(id, func(Message) { *c++ }); err != nil {
			t.Fatal(err)
		}
	}
	p := NewFaultPlan()
	n.SetFaultPlan(p)
	return n, p, got
}

func TestDownReturnsTypedErrorAndChargesNothing(t *testing.T) {
	n, p, got := faultNet(t, 1, "a", "b")
	p.Down("b")
	err := n.Send(Message{From: "a", To: "b", Payload: []byte("xx")})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("send to down node = %v, want ErrNodeDown", err)
	}
	var nd *NodeDownError
	if !errors.As(err, &nd) || nd.ID != "b" {
		t.Fatalf("error %v does not identify the down node", err)
	}
	if !nd.Retryable() {
		t.Fatal("NodeDownError must classify as retryable")
	}
	// "error ⇒ nothing charged": the radio never transmitted.
	s := *n.stats["a"]
	if s.TxMessages != 0 || s.TxBytes != 0 || s.Dropped != 0 {
		t.Fatalf("down send charged the sender: %+v", s)
	}
	// A down sender fails the same way.
	if err := n.Send(Message{From: "b", To: "a"}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("send from down node = %v, want ErrNodeDown", err)
	}
	p.Up("b")
	if err := n.Send(Message{From: "a", To: "b", Payload: []byte("xx")}); err != nil {
		t.Fatalf("send after Up: %v", err)
	}
	if *got["b"] != 1 {
		t.Fatalf("delivered %d after restart, want 1", *got["b"])
	}
}

func TestCrashWindowKeyedOnMessageCount(t *testing.T) {
	n, p, got := faultNet(t, 2, "a", "b")
	p.Crash("b", 1, 3) // down for transmission attempts 1 and 2
	for i := 0; i < 4; i++ {
		err := n.Send(Message{From: "a", To: "b", Payload: []byte("x")})
		down := i == 1 || i == 2
		if down != errors.Is(err, ErrNodeDown) {
			t.Fatalf("msg %d: err=%v, want down=%v", i, err, down)
		}
	}
	if *got["b"] != 2 {
		t.Fatalf("delivered %d, want 2 (attempts 0 and 3)", *got["b"])
	}
	if n.msgCount != 4 {
		t.Fatalf("msg count %d, want 4 (down attempts still tick the clock)", n.msgCount)
	}
}

func TestPartitionWindowDropsBothDirections(t *testing.T) {
	n, p, got := faultNet(t, 3, "a", "b")
	p.Partition("a", "b", 0, 2)
	for i := 0; i < 2; i++ {
		from, to := "a", "b"
		if i == 1 {
			from, to = "b", "a"
		}
		delivered, err := n.Deliver(Message{From: from, To: to, Payload: []byte("xyz")})
		if err != nil {
			t.Fatalf("msg %d: partition must drop silently, got error %v", i, err)
		}
		if delivered {
			t.Fatalf("msg %d delivered across partition", i)
		}
	}
	// Window closed at count 2: traffic flows again.
	if delivered, err := n.Deliver(Message{From: "a", To: "b"}); err != nil || !delivered {
		t.Fatalf("after window: delivered=%v err=%v", delivered, err)
	}
	if *got["b"] != 1 || *got["a"] != 0 {
		t.Fatalf("handler counts a=%d b=%d", *got["a"], *got["b"])
	}
	// Partition drops charge the sender like link loss.
	sa := *n.stats["a"]
	if sa.TxMessages != 2 || sa.Dropped != 1 || sa.TxBytes != 3 {
		t.Fatalf("sender a stats %+v, want 2 tx (1 dropped)", sa)
	}
}

func TestBurstLossDeterministicAndBursty(t *testing.T) {
	cfg := GilbertElliott{PGoodToBad: 0.2, PBadToGood: 0.3, LossBad: 1.0}
	run := func(seed int64) (pattern string, lost int) {
		n, p, _ := faultNet(t, seed, "a", "b")
		p.SetBurstLink("a", "b", cfg)
		for i := 0; i < 200; i++ {
			delivered, err := n.Deliver(Message{From: "a", To: "b", Payload: []byte("x")})
			if err != nil {
				t.Fatal(err)
			}
			if delivered {
				pattern += "1"
			} else {
				pattern += "0"
				lost++
			}
		}
		return pattern, lost
	}
	p1, lost := run(7)
	p2, _ := run(7)
	if p1 != p2 {
		t.Fatal("burst loss pattern not reproducible for a fixed seed")
	}
	// With these chain parameters the stationary bad-state probability is
	// 0.2/(0.2+0.3) = 40%; over 200 messages the realized loss must be
	// well away from both 0 and 100%.
	if lost < 20 || lost > 180 {
		t.Fatalf("burst loss %d/200 implausible for the chain parameters", lost)
	}
	// Losses cluster: a bursty channel has far fewer loss runs than an
	// i.i.d. channel with the same rate would (runs ≈ lost·(1-rate)).
	runs := 0
	for i := 0; i < len(p1); i++ {
		if p1[i] == '0' && (i == 0 || p1[i-1] == '1') {
			runs++
		}
	}
	if runs >= lost {
		t.Fatalf("losses not bursty: %d runs for %d losses", runs, lost)
	}
}

func TestAsyncDuplicateAndReorder(t *testing.T) {
	n, p, got := faultNet(t, 11, "a", "b")
	n.SetAsync(true)
	p.SetDuplicateProb(1)
	for i := 0; i < 3; i++ {
		delivered, err := n.Deliver(Message{From: "a", To: "b", Payload: []byte("x")})
		if err != nil || !delivered {
			t.Fatalf("async enqueue: delivered=%v err=%v", delivered, err)
		}
	}
	if *got["b"] != 0 || len(n.queue) != 3 {
		t.Fatalf("async mode delivered early: got=%d pending=%d", *got["b"], len(n.queue))
	}
	if d := n.Flush(); d != 6 {
		t.Fatalf("flush delivered %d, want 6 (every message duplicated)", d)
	}
	if *got["b"] != 6 {
		t.Fatalf("handler saw %d messages, want 6", *got["b"])
	}
	sb := *n.stats["b"]
	if sb.RxMessages != 6 {
		t.Fatalf("rx accounting %d, want 6", sb.RxMessages)
	}

	// Reorder is deterministic for a fixed seed: two identical runs give
	// identical delivery orders, and some run observably deviates from
	// FIFO.
	order := func(seed int64) string {
		nn := New(seed)
		pp := NewFaultPlan()
		nn.SetFaultPlan(pp)
		nn.SetAsync(true)
		pp.SetReorderProb(0.4)
		var seq string
		if err := nn.Register("s", nil); err != nil {
			t.Fatal(err)
		}
		if err := nn.Register("r", func(m Message) { seq += m.Topic }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := nn.Deliver(Message{From: "s", To: "r", Topic: fmt.Sprint(i)}); err != nil {
				t.Fatal(err)
			}
		}
		nn.Flush()
		return seq
	}
	if order(5) != order(5) {
		t.Fatal("reorder not reproducible for a fixed seed")
	}
	deviated := false
	for seed := int64(0); seed < 10; seed++ {
		if order(seed) != "01234567" {
			deviated = true
			break
		}
	}
	if !deviated {
		t.Fatal("reorder knob never reordered across 10 seeds")
	}
}

func TestFlushDropsMessagesForReceiverNowDown(t *testing.T) {
	n, p, got := faultNet(t, 13, "a", "b")
	n.SetAsync(true)
	if _, err := n.Deliver(Message{From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	p.Down("b") // receiver crashes after the message was queued
	if d := n.Flush(); d != 0 {
		t.Fatalf("flush delivered %d to a down node", d)
	}
	if *got["b"] != 0 {
		t.Fatal("handler ran for a message dropped at flush")
	}
	sa := *n.stats["a"]
	if sa.Dropped != 1 {
		t.Fatalf("drop not charged to sender: %+v", sa)
	}
}

func TestSendDeliverEquivalence(t *testing.T) {
	// Deliver(…) with a healthy link behaves exactly like Send and reports
	// delivery; total stats line up with the mirror obs counters' contract
	// (Dropped counts only in-flight losses).
	n, _, got := faultNet(t, 19, "a", "b")
	delivered, err := n.Deliver(Message{From: "a", To: "b", Payload: []byte("ok")})
	if err != nil || !delivered {
		t.Fatalf("delivered=%v err=%v", delivered, err)
	}
	if *got["b"] != 1 {
		t.Fatal("handler not invoked")
	}
	tot := n.Totals()
	if tot.TxMessages != 1 || tot.RxMessages != 1 || tot.Dropped != 0 {
		t.Fatalf("totals %+v", tot)
	}

	// Property: a run (DeliverRun in async mode) plus one Flush is
	// identical, per node, to sending its messages one by one with sync
	// Deliver whenever the dup/reorder knobs are zero — same Stats
	// structs, same delivery order and bytes, same simulated time, same
	// fault clock — over a lossy link with burst loss, a partition and
	// crash windows that split runs, across seeds. This is the contract
	// that lets the fleet backend reuse the netsim accounting unchanged.
	for seed := int64(0); seed < 20; seed++ {
		runEquivalence(t, seed)
	}
}
