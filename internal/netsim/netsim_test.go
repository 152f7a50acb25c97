package netsim

import (
	"sync"
	"testing"
)

func TestSendCountsTraffic(t *testing.T) {
	n := New(1)
	var got []Message
	if err := n.Register("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", func(m Message) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Message{From: "a", To: "b", Topic: "t", Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Payload) != "hello" {
		t.Fatalf("delivery failed: %+v", got)
	}
	sa := *n.stats["a"]
	sb := *n.stats["b"]
	if sa.TxMessages != 1 || sa.TxBytes != 5 || sb.RxMessages != 1 || sb.RxBytes != 5 {
		t.Fatalf("stats a=%+v b=%+v", sa, sb)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	n := New(1)
	if err := n.Register("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", nil); err == nil {
		t.Fatal("want duplicate error")
	}
}

func TestSendUnknownNodes(t *testing.T) {
	n := New(1)
	n.Register("a", nil)
	if err := n.Send(Message{From: "x", To: "a"}); err == nil {
		t.Fatal("want unknown sender error")
	}
	if err := n.Send(Message{From: "a", To: "x"}); err == nil {
		t.Fatal("want unknown receiver error")
	}
}

func TestLossyLinkDropsButChargesSender(t *testing.T) {
	n := New(42)
	delivered := 0
	n.Register("a", nil)
	n.Register("b", func(Message) { delivered++ })
	n.SetDefaultLink(Link{LossProb: 1.0})
	for i := 0; i < 10; i++ {
		if err := n.Send(Message{From: "a", To: "b", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if delivered != 0 {
		t.Fatalf("%d messages leaked through a fully lossy link", delivered)
	}
	sa := *n.stats["a"]
	if sa.TxMessages != 10 || sa.Dropped != 10 {
		t.Fatalf("sender stats %+v", sa)
	}
	sb := *n.stats["b"]
	if sb.RxMessages != 0 {
		t.Fatalf("receiver stats %+v", sb)
	}
}

func TestPartialLossStatistics(t *testing.T) {
	n := New(7)
	n.Register("a", nil)
	n.Register("b", nil)
	n.SetDefaultLink(Link{LossProb: 0.5})
	for i := 0; i < 400; i++ {
		n.Send(Message{From: "a", To: "b", Payload: []byte("x")})
	}
	sa := *n.stats["a"]
	if sa.Dropped < 120 || sa.Dropped > 280 {
		t.Fatalf("dropped %d of 400 at p=0.5", sa.Dropped)
	}
}

func TestLatencyAccumulates(t *testing.T) {
	n := New(1)
	n.Register("a", nil)
	n.Register("b", nil)
	n.SetDefaultLink(Link{LatencyMS: 10})
	for i := 0; i < 5; i++ {
		n.Send(Message{From: "a", To: "b"})
	}
	if n.SimTimeMS() != 50 {
		t.Fatalf("sim time %v, want 50", n.SimTimeMS())
	}
}

func TestMaxTxRxAndTotals(t *testing.T) {
	n := New(1)
	n.Register("a", nil)
	n.Register("b", nil)
	n.Register("sink", nil)
	for i := 0; i < 3; i++ {
		n.Send(Message{From: "a", To: "sink", Payload: []byte("xx")})
	}
	n.Send(Message{From: "b", To: "sink", Payload: []byte("y")})
	id, cnt := n.MaxRx()
	if id != "sink" || cnt != 4 {
		t.Fatalf("MaxRx=(%s,%d)", id, cnt)
	}
	tot := n.Totals()
	if tot.TxMessages != 4 || tot.TxBytes != 7 || tot.RxBytes != 7 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestConcurrentSends(t *testing.T) {
	n := New(1)
	n.Register("sink", nil)
	const senders, each = 8, 50
	for i := 0; i < senders; i++ {
		n.Register(string(rune('a'+i)), nil)
	}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				n.Send(Message{From: id, To: "sink", Payload: []byte("p")})
			}
		}(string(rune('a' + i)))
	}
	wg.Wait()
	if tot := n.Totals(); tot.TxMessages != senders*each {
		t.Fatalf("lost sends: %+v", tot)
	}
}

func BenchmarkSend(b *testing.B) {
	n := New(1)
	n.Register("a", nil)
	n.Register("b", nil)
	msg := Message{From: "a", To: "b", Payload: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := n.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSendDeliverAllocateNothing pins at run time the zero-allocation
// contract of Send, Deliver and DeliverBatch, hot entry points
// (lint.HotEntryPoints), in sync mode and in async mode with the Flush
// that drains them, over a lossy link so both verdicts are taken.
func TestSendDeliverAllocateNothing(t *testing.T) {
	for _, async := range []bool{false, true} {
		n := New(5)
		delivered := 0
		for _, id := range []string{"a", "b"} {
			if err := n.Register(id, func(Message) { delivered++ }); err != nil {
				t.Fatal(err)
			}
		}
		n.SetDefaultLink(Link{LossProb: 0.2, LatencyMS: 1})
		n.SetAsync(async)
		msg := Message{From: "a", To: "b", Topic: "t", Payload: make([]byte, 64)}
		batch := []Message{msg, {From: "b", To: "a", Topic: "t", Payload: msg.Payload}, msg}
		allocs := testing.AllocsPerRun(100, func() {
			if err := n.Send(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Deliver(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := n.DeliverBatch(batch); err != nil {
				t.Fatal(err)
			}
			n.Flush()
		})
		if allocs != 0 {
			t.Errorf("async=%v: Send, Deliver and DeliverBatch: %.1f allocs per round, want 0", async, allocs)
		}
		if delivered == 0 {
			t.Errorf("async=%v: nothing delivered", async)
		}
	}
}
