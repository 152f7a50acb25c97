package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// TestDeliverRunConcurrentFlushReentrant is the -race audit of the run
// path: four goroutines send runs while two flush, and the receiver's
// handler sends a message on per delivery — a re-entrant enqueue from
// inside Flush's unlocked handler pass, landing in the queue Flush just
// detached from. Afterwards the ledger must balance (rx = tx − dropped +
// duplicated), every rx-charged copy must have run a handler, the queue
// must drain, and no goroutine may leak.
func TestDeliverRunConcurrentFlushReentrant(t *testing.T) {
	testutil.CheckGoroutines(t)
	obs.Enable()
	defer obs.Disable()
	before := snapNetsimObs()

	n := New(53)
	p := NewFaultPlan()
	n.SetFaultPlan(p)
	n.SetAsync(true)
	n.SetDefaultLink(Link{LatencyMS: 1, LossProb: 0.05})
	p.SetDuplicateProb(0.1)
	p.SetReorderProb(0.1)
	var hubRx, sinkRx atomic.Int64
	senders := []string{"s0", "s1", "s2", "s3"}
	for _, id := range senders {
		if err := n.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Register("sink", func(Message) { sinkRx.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("hub", func(m Message) {
		hubRx.Add(1)
		if err := n.Send(Message{From: "hub", To: "sink", Topic: "echo", Payload: m.Payload}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	const runsPerSender = 200
	var senderWG, flushWG sync.WaitGroup
	for _, from := range senders {
		senderWG.Add(1)
		go func(from string) {
			defer senderWG.Done()
			for i := 0; i < runsPerSender; i++ {
				c := 1 + i%7
				// A fresh payload per run: the network reads it until the
				// Flush that drains the run, whichever goroutine that is.
				r := Run{From: from, To: "hub", Topic: "run", Count: c, Payload: make([]byte, 3*c)}
				if _, err := n.DeliverRun(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(from)
	}
	stop := make(chan struct{})
	for f := 0; f < 2; f++ {
		flushWG.Add(1)
		go func() {
			defer flushWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					n.Flush()
				}
			}
		}()
	}
	senderWG.Wait()
	close(stop)
	flushWG.Wait()
	// Drain: the last flushes' echoes are still queued.
	for i := 0; ; i++ {
		n.Flush()
		n.mu.Lock()
		pending := len(n.queue)
		n.mu.Unlock()
		if pending == 0 {
			break
		}
		if i == 10 {
			t.Fatalf("queue did not drain: %d pending", pending)
		}
	}

	d := snapNetsimObs().sub(before)
	tot := n.Totals()
	if int64(tot.RxMessages) != int64(tot.TxMessages)-int64(tot.Dropped)+d.dup {
		t.Fatalf("rx %d != tx %d - dropped %d + dup %d", tot.RxMessages, tot.TxMessages, tot.Dropped, d.dup)
	}
	if got := hubRx.Load() + sinkRx.Load(); got != int64(tot.RxMessages) {
		t.Fatalf("handlers ran %d times, rx charged %d", got, tot.RxMessages)
	}
	n.mu.Lock()
	hubTx := n.stats["hub"].TxMessages
	n.mu.Unlock()
	if int64(hubTx) != hubRx.Load() {
		t.Fatalf("hub sent %d echoes for %d deliveries", hubTx, hubRx.Load())
	}
	if d.dup == 0 || d.reorder == 0 || tot.Dropped == 0 {
		t.Fatalf("faults not exercised: dup %d reorder %d dropped %d", d.dup, d.reorder, tot.Dropped)
	}
}
