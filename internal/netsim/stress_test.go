package netsim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// TestStatsAccessorsUnderConcurrentTraffic is the -race audit of the stats
// accessors: Totals, MaxRx and SimTimeMS all run concurrently with
// point-to-point and fan-out Send traffic. Any unguarded read of the
// per-node Stats or the simTime accumulator shows up as a data race under
// scripts/check.sh's race suite.
func TestStatsAccessorsUnderConcurrentTraffic(t *testing.T) {
	testutil.CheckGoroutines(t)
	n := New(42)
	const nodes = 8
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
		if err := n.Register(ids[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	n.SetDefaultLink(Link{LatencyMS: 1.5, LossProb: 0.1})

	const rounds = 300
	var wg sync.WaitGroup
	// Writers: point-to-point senders plus one sending to every other node.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				from, to := ids[(w+i)%nodes], ids[(w+i+1)%nodes]
				if err := n.Send(Message{From: from, To: to, Payload: []byte("p")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/10; i++ {
			from := ids[i%nodes]
			for _, to := range ids {
				if to == from {
					continue
				}
				if err := n.Send(Message{From: from, To: to, Topic: "b", Payload: []byte("bb")}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Readers: every accessor, racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_ = n.Totals()
			_, _ = n.MaxRx()
			_ = n.SimTimeMS()
		}
	}()
	wg.Wait()

	// Post-conditions: counters are internally consistent after the dust
	// settles (every delivered message was counted on both sides).
	tot := n.Totals()
	if tot.RxMessages != tot.TxMessages-tot.Dropped {
		t.Fatalf("rx %d != tx %d - dropped %d", tot.RxMessages, tot.TxMessages, tot.Dropped)
	}
	if tot.RxBytes > tot.TxBytes {
		t.Fatalf("rx bytes %d > tx bytes %d", tot.RxBytes, tot.TxBytes)
	}
}

// TestObsCountersMatchTotals asserts the acceptance criterion that the
// global obs counters mirror Totals() exactly for a network's traffic —
// the -obs-out snapshot must agree with the in-simulation accounting.
func TestObsCountersMatchTotals(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	txM0 := obs.GetCounter("netsim.tx.messages").Value()
	txB0 := obs.GetCounter("netsim.tx.bytes").Value()
	rxM0 := obs.GetCounter("netsim.rx.messages").Value()
	rxB0 := obs.GetCounter("netsim.rx.bytes").Value()
	lost0 := obs.GetCounter("netsim.lost.messages").Value()

	n := New(7)
	for _, id := range []string{"a", "b", "c"} {
		if err := n.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range []string{"a", "b"} {
		if err := n.Send(Message{From: "c", To: to, Topic: "t", Payload: make([]byte, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	n.SetDefaultLink(Link{LossProb: 0.5, LatencyMS: 2})
	for i := 0; i < 50; i++ {
		if err := n.Send(Message{From: "a", To: "b", Payload: make([]byte, 10)}); err != nil {
			t.Fatal(err)
		}
	}

	tot := n.Totals()
	if got := obs.GetCounter("netsim.tx.messages").Value() - txM0; got != int64(tot.TxMessages) {
		t.Fatalf("obs tx.messages %d != Totals().TxMessages %d", got, tot.TxMessages)
	}
	if got := obs.GetCounter("netsim.tx.bytes").Value() - txB0; got != int64(tot.TxBytes) {
		t.Fatalf("obs tx.bytes %d != Totals().TxBytes %d", got, tot.TxBytes)
	}
	if got := obs.GetCounter("netsim.rx.messages").Value() - rxM0; got != int64(tot.RxMessages) {
		t.Fatalf("obs rx.messages %d != Totals().RxMessages %d", got, tot.RxMessages)
	}
	if got := obs.GetCounter("netsim.rx.bytes").Value() - rxB0; got != int64(tot.RxBytes) {
		t.Fatalf("obs rx.bytes %d != Totals().RxBytes %d", got, tot.RxBytes)
	}
	if got := obs.GetCounter("netsim.lost.messages").Value() - lost0; got != int64(tot.Dropped) {
		t.Fatalf("obs lost.messages %d != Totals().Dropped %d", got, tot.Dropped)
	}
	if h := obs.GetHistogram("netsim.link.latency_ms", obs.LatencyBuckets); h.Snapshot().Count == 0 {
		t.Fatal("latency histogram empty after delivered traffic")
	}
}
