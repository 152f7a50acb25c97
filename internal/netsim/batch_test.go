package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
)

// netsimObs is a snapshot of the global netsim obs mirrors, for
// delta-based reconciliation against Totals(). The obs registry is
// process-global, so tests take a snapshot before generating traffic
// and assert on the difference.
type netsimObs struct {
	txM, txB, rxM, rxB, lost      int64
	down, partition, dup, reorder int64
}

func snapNetsimObs() netsimObs {
	return netsimObs{
		txM:       obs.GetCounter("netsim.tx.messages").Value(),
		txB:       obs.GetCounter("netsim.tx.bytes").Value(),
		rxM:       obs.GetCounter("netsim.rx.messages").Value(),
		rxB:       obs.GetCounter("netsim.rx.bytes").Value(),
		lost:      obs.GetCounter("netsim.lost.messages").Value(),
		down:      obs.GetCounter("netsim.fault.down").Value(),
		partition: obs.GetCounter("netsim.fault.partitioned").Value(),
		dup:       obs.GetCounter("netsim.fault.duplicated").Value(),
		reorder:   obs.GetCounter("netsim.fault.reordered").Value(),
	}
}

func (a netsimObs) sub(b netsimObs) netsimObs {
	return netsimObs{
		txM: a.txM - b.txM, txB: a.txB - b.txB,
		rxM: a.rxM - b.rxM, rxB: a.rxB - b.rxB,
		lost: a.lost - b.lost, down: a.down - b.down,
		partition: a.partition - b.partition,
		dup:       a.dup - b.dup, reorder: a.reorder - b.reorder,
	}
}

// TestFlushDupToDownReceiverAccounting is the regression test for the
// dup-before-down ordering bug: Flush used to draw the duplicate
// decision (and bump netsim.fault.duplicated) before checking whether
// the receiver was down, so a duplicated message to a crashed node
// inflated the dup counter relative to actual deliveries, charged the
// sender two Dropped for one undeliverable message, and fired
// netsim.fault.down once regardless of copies. The fixed order — down
// check first, duplicate draw only for deliverable messages — makes
// every obs mirror reconcile with Totals().
func TestFlushDupToDownReceiverAccounting(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	before := snapNetsimObs()

	n, p, got := faultNet(t, 23, "a", "b", "c")
	n.SetAsync(true)
	p.SetDuplicateProb(1) // every deliverable message is duplicated
	for _, to := range []string{"b", "b", "c"} {
		delivered, err := n.Deliver(Message{From: "a", To: to, Payload: []byte("xx")})
		if err != nil || !delivered {
			t.Fatalf("enqueue to %s: delivered=%v err=%v", to, delivered, err)
		}
	}
	p.Down("b") // b crashes with two messages already queued

	if d := n.Flush(); d != 2 {
		t.Fatalf("flush delivered %d, want 2 (only c's message, duplicated)", d)
	}
	if *got["b"] != 0 || *got["c"] != 2 {
		t.Fatalf("handlers saw b=%d c=%d, want 0 and 2", *got["b"], *got["c"])
	}

	sa, _ := n.NodeStats("a")
	if sa.Dropped != 2 {
		t.Fatalf("sender charged %d Dropped, want 2 (one per undeliverable message, not per would-be copy)", sa.Dropped)
	}
	d := snapNetsimObs().sub(before)
	if d.dup != 1 {
		t.Fatalf("netsim.fault.duplicated grew %d, want 1 (down receiver's messages never reach the dup draw)", d.dup)
	}
	if d.down != 2 {
		t.Fatalf("netsim.fault.down grew %d, want 2 (once per message dropped to the down receiver)", d.down)
	}
	tot := n.Totals()
	if d.lost != int64(tot.Dropped) || d.rxM != int64(tot.RxMessages) || d.txM != int64(tot.TxMessages) {
		t.Fatalf("obs deltas %+v do not reconcile with Totals %+v", d, tot)
	}
}

// TestFlushAccountingInvariant pins the charged-vs-delivered invariant
// documented on Flush — the queued-message analogue of Send's "error ⇒
// nothing charged" — across the fault combinations that historically
// disturbed it: a receiver going down mid-queue, duplication racing a
// crash, and reorder stacked on link loss. For every scenario the obs
// mirrors must reconcile exactly with Totals(), handler invocations must
// equal the rx-message growth, and rx must equal tx minus drops.
func TestFlushAccountingInvariant(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	type scenario struct {
		name string
		run  func(t *testing.T, n *Network, p *FaultPlan)
	}
	scenarios := []scenario{
		{"down-mid-queue", func(t *testing.T, n *Network, p *FaultPlan) {
			// Interleaved receivers; one crashes after its messages queue.
			for _, to := range []string{"b", "c", "b", "c"} {
				if _, err := n.Deliver(Message{From: "a", To: to, Payload: []byte("pay")}); err != nil {
					t.Fatal(err)
				}
			}
			p.Down("b")
			n.Flush()
		}},
		{"dup+down", func(t *testing.T, n *Network, p *FaultPlan) {
			p.SetDuplicateProb(0.7)
			for i := 0; i < 12; i++ {
				to := "b"
				if i%3 == 0 {
					to = "c"
				}
				if _, err := n.Deliver(Message{From: "a", To: to, Payload: []byte("zz")}); err != nil {
					t.Fatal(err)
				}
			}
			p.Down("c")
			n.Flush()
		}},
		{"reorder+loss", func(t *testing.T, n *Network, p *FaultPlan) {
			n.SetDefaultLink(Link{LatencyMS: 2, LossProb: 0.4})
			p.SetReorderProb(0.5)
			for i := 0; i < 20; i++ {
				if _, err := n.Deliver(Message{From: "a", To: "b", Payload: []byte("q")}); err != nil {
					t.Fatal(err)
				}
			}
			n.Flush()
			// Second wave so reordered stragglers mix with fresh traffic.
			for i := 0; i < 10; i++ {
				if _, err := n.Deliver(Message{From: "a", To: "c", Payload: []byte("qq")}); err != nil {
					t.Fatal(err)
				}
			}
			n.Flush()
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			before := snapNetsimObs()
			n, p, got := faultNet(t, 31, "a", "b", "c")
			n.SetAsync(true)
			sc.run(t, n, p)

			d := snapNetsimObs().sub(before)
			tot := n.Totals()
			if d.txM != int64(tot.TxMessages) || d.txB != int64(tot.TxBytes) {
				t.Fatalf("obs tx (%d msgs, %d bytes) != Totals (%d, %d)", d.txM, d.txB, tot.TxMessages, tot.TxBytes)
			}
			if d.rxM != int64(tot.RxMessages) || d.rxB != int64(tot.RxBytes) {
				t.Fatalf("obs rx (%d msgs, %d bytes) != Totals (%d, %d)", d.rxM, d.rxB, tot.RxMessages, tot.RxBytes)
			}
			if d.lost != int64(tot.Dropped) {
				t.Fatalf("obs lost %d != Totals().Dropped %d", d.lost, tot.Dropped)
			}
			handlerRuns := *got["a"] + *got["b"] + *got["c"]
			// Delivered copies (rx minus duplicate extras) can exceed
			// queued messages, but every rx-charged copy must have run a
			// handler: charged ⇔ delivered.
			if handlerRuns != tot.RxMessages {
				t.Fatalf("handlers ran %d times, rx charged %d", handlerRuns, tot.RxMessages)
			}
			// Duplicate deliveries add rx beyond tx; drops subtract. With
			// dup extras counted once each: rx = tx - dropped + duplicated.
			if int64(tot.RxMessages) != int64(tot.TxMessages)-int64(tot.Dropped)+d.dup {
				t.Fatalf("rx %d != tx %d - dropped %d + dup %d", tot.RxMessages, tot.TxMessages, tot.Dropped, d.dup)
			}
			if n.Pending() != 0 {
				t.Fatalf("%d messages still queued after flush", n.Pending())
			}
		})
	}
}

// genTraffic builds a deterministic pseudorandom message mix from seed:
// varying senders, sizes, and topics toward one receiver.
func genTraffic(seed int64, senders []string, to string, count int) []Message {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]Message, count)
	for i := range msgs {
		pay := make([]byte, 1+rng.Intn(32))
		for j := range pay {
			pay[j] = byte(rng.Intn(256))
		}
		msgs[i] = Message{
			From:    senders[rng.Intn(len(senders))],
			To:      to,
			Topic:   fmt.Sprintf("t/%d", i),
			Payload: pay,
		}
	}
	return msgs
}

// equivNet builds a network with the property-test topology: lossy
// default link, an installed (but dup/reorder-free) fault plan, sender
// sinks, and a receiver that records delivery order.
func equivNet(t *testing.T, seed int64, senders []string, to string) (*Network, *[]string) {
	t.Helper()
	n := New(seed)
	p := NewFaultPlan()
	n.SetFaultPlan(p)
	n.SetDefaultLink(Link{LatencyMS: 2, LossProb: 0.3})
	for _, id := range senders {
		if err := n.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := &[]string{}
	if err := n.Register(to, func(m Message) { *seen = append(*seen, m.Topic) }); err != nil {
		t.Fatal(err)
	}
	return n, seen
}

// TestDeliverBatchDownSkipsWithoutCharge: a down endpoint inside a batch
// is skipped — counted in BatchResult.Down, nothing charged to either
// party — while the rest of the batch proceeds; only an unknown endpoint
// aborts.
func TestDeliverBatchDownSkipsWithoutCharge(t *testing.T) {
	n, p, got := faultNet(t, 37, "a", "b", "c")
	p.Down("c")
	res, err := n.DeliverBatch([]Message{
		{From: "a", To: "b", Payload: []byte("1")},
		{From: "a", To: "c", Payload: []byte("2")}, // down: skipped
		{From: "a", To: "b", Payload: []byte("3")},
	})
	if err != nil {
		t.Fatalf("batch with down endpoint errored: %v", err)
	}
	if res.Down != 1 || res.Delivered != 2 || res.Lost != 0 || res.Queued != 0 {
		t.Fatalf("batch result %+v, want 2 delivered / 1 down", res)
	}
	if *got["b"] != 2 || *got["c"] != 0 {
		t.Fatalf("handlers saw b=%d c=%d", *got["b"], *got["c"])
	}
	sa, _ := n.NodeStats("a")
	if sa.TxMessages != 2 || sa.TxBytes != 2 || sa.Dropped != 0 {
		t.Fatalf("down message charged the sender: %+v", sa)
	}

	// Unknown endpoint aborts with the partial result.
	res, err = n.DeliverBatch([]Message{
		{From: "a", To: "b", Payload: []byte("4")},
		{From: "a", To: "ghost", Payload: []byte("5")},
		{From: "a", To: "b", Payload: []byte("6")},
	})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("batch to unknown node = %v, want ErrUnknownNode", err)
	}
	if res.Delivered != 1 {
		t.Fatalf("partial result %+v, want 1 delivered before the abort", res)
	}
	if *got["b"] != 3 {
		t.Fatalf("message after the failing one was transmitted: b=%d", *got["b"])
	}
}

// TestDeliverBatchAsyncQueuesAndFlushes: in async mode the whole batch
// lands on the queue and Flush delivers it in order.
func TestDeliverBatchAsyncQueuesAndFlushes(t *testing.T) {
	n, _, got := faultNet(t, 41, "a", "b")
	n.SetAsync(true)
	res, err := n.DeliverBatch(genTraffic(41, []string{"a"}, "b", 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Queued != 16 || res.Delivered != 0 {
		t.Fatalf("batch result %+v, want 16 queued", res)
	}
	if n.Pending() != 16 {
		t.Fatalf("pending %d, want 16", n.Pending())
	}
	if d := n.Flush(); d != 16 {
		t.Fatalf("flush delivered %d, want 16", d)
	}
	if *got["b"] != 16 {
		t.Fatalf("handler saw %d messages", *got["b"])
	}
}

// batchedEquivalence is the property body shared with
// TestSendDeliverEquivalence: for one seed, sequential sync Send and
// batched async enqueue + Flush must produce byte-identical per-node
// Stats, identical delivery order, and identical simulated time when
// the dup/reorder knobs are zero.
func batchedEquivalence(t *testing.T, seed int64) {
	t.Helper()
	senders := []string{"a", "b", "c"}
	msgs := genTraffic(seed, senders, "r", 64)

	seqNet, seqSeen := equivNet(t, seed, senders, "r")
	for _, m := range msgs {
		if _, err := seqNet.Deliver(m); err != nil {
			t.Fatalf("seed %d: sequential send: %v", seed, err)
		}
	}

	batNet, batSeen := equivNet(t, seed, senders, "r")
	batNet.SetAsync(true)
	res, err := batNet.DeliverBatch(msgs)
	if err != nil {
		t.Fatalf("seed %d: batch enqueue: %v", seed, err)
	}
	if res.Queued+res.Lost != len(msgs) {
		t.Fatalf("seed %d: batch result %+v does not cover %d messages", seed, res, len(msgs))
	}
	batNet.Flush()

	for _, id := range append(senders, "r") {
		ss, _ := seqNet.NodeStats(id)
		bs, _ := batNet.NodeStats(id)
		if ss != bs {
			t.Fatalf("seed %d: node %s stats diverge: sequential %+v, batched %+v", seed, id, ss, bs)
		}
	}
	if sq, bq := strings.Join(*seqSeen, ","), strings.Join(*batSeen, ","); sq != bq {
		t.Fatalf("seed %d: delivery order diverges:\nsequential %s\nbatched    %s", seed, sq, bq)
	}
	if seqNet.SimTimeMS() != batNet.SimTimeMS() {
		t.Fatalf("seed %d: simulated time diverges: %v vs %v", seed, seqNet.SimTimeMS(), batNet.SimTimeMS())
	}
	if seqNet.MsgCount() != batNet.MsgCount() {
		t.Fatalf("seed %d: fault clock diverges: %d vs %d", seed, seqNet.MsgCount(), batNet.MsgCount())
	}
}

// TestFlushReusesQueueAndDropsPayloads pins the steady-state cost of a
// batched round: once the queue has grown to a round's size, a further
// DeliverBatch+Flush round allocates a constant number of objects (the
// presized delivery list), not a chain of regrowths, and the retained
// backing array holds no payload reference after Flush — senders reuse
// their payload buffers between rounds.
func TestFlushReusesQueueAndDropsPayloads(t *testing.T) {
	const count = 4096
	n := New(43)
	delivered := 0
	for _, id := range []string{"a", "r"} {
		if err := n.Register(id, func(Message) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	n.SetAsync(true)
	msgs := genTraffic(43, []string{"a"}, "r", count)
	round := func() {
		if _, err := n.DeliverBatch(msgs); err != nil {
			t.Fatal(err)
		}
		n.Flush()
	}
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs > 4 {
		t.Errorf("steady-state round of %d messages allocates %.0f objects, want O(1)", count, allocs)
	}
	if delivered != 7*count { // the first round, AllocsPerRun's warm-up, five measured
		t.Errorf("handlers saw %d deliveries, want %d", delivered, 7*count)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.queue) != 0 || cap(n.queue) < count {
		t.Fatalf("after Flush: queue len %d cap %d, want drained with capacity kept", len(n.queue), cap(n.queue))
	}
	for i, m := range n.queue[:cap(n.queue)] {
		if m.Payload != nil || m.From != "" {
			t.Fatalf("queue slot %d still references a flushed message", i)
		}
	}
}
