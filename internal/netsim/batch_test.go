package netsim

import (
	"errors"
	"fmt"
	"math"
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

	sa := *n.stats["a"]
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
			if len(n.queue) != 0 {
				t.Fatalf("%d messages still queued after flush", len(n.queue))
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
// default link, an installed fault plan, sender sinks, and a receiver
// that records delivery order and payload bytes.
func equivNet(t *testing.T, seed int64, senders []string, to string) (*Network, *FaultPlan, *[]string) {
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
	if err := n.Register(to, func(m Message) { *seen = append(*seen, fmt.Sprintf("%s:%x", m.Topic, m.Payload)) }); err != nil {
		t.Fatal(err)
	}
	return n, p, seen
}

// genRuns builds a deterministic pseudorandom mix of runs from seed:
// varying senders, message counts and message sizes (zero included)
// toward one receiver.
func genRuns(seed int64, senders []string, to string, count int) []Run {
	rng := rand.New(rand.NewSource(seed))
	runs := make([]Run, count)
	for i := range runs {
		c, size := 2+rng.Intn(11), rng.Intn(9)
		pay := make([]byte, c*size)
		rng.Read(pay)
		runs[i] = Run{From: senders[rng.Intn(len(senders))], To: to, Topic: fmt.Sprintf("t/%d", i), Count: c, Payload: pay}
	}
	return runs
}

// insideRun returns a fault-clock position strictly inside a random run
// of runs — past its first message and before its last — so a window
// edge placed there splits the run.
func insideRun(rng *rand.Rand, runs []Run) int {
	j := rng.Intn(len(runs))
	pos := 0
	for _, r := range runs[:j] {
		pos += r.Count
	}
	return pos + 1 + rng.Intn(runs[j].Count-1)
}

// equivFaults scripts the same faults on both halves of the property:
// a burst channel, a partition and two crash windows (one at a sender,
// one at the receiver), every window edge inside a run.
func equivFaults(p *FaultPlan, seed int64, runs []Run) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	window := func() (int, int) {
		a, b := insideRun(rng, runs), insideRun(rng, runs)
		if a > b {
			a, b = b, a
		}
		return a, b + 1
	}
	p.SetBurstLink("c", "r", GilbertElliott{PGoodToBad: 0.3, PBadToGood: 0.4, LossBad: 0.8})
	from, to := window()
	p.Partition("a", "r", from, to)
	from, to = window()
	p.Crash("b", from, to)
	from, to = window()
	p.Crash("r", from, to)
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
	sa := *n.stats["a"]
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
	if len(n.queue) != 16 {
		t.Fatalf("pending %d, want 16", len(n.queue))
	}
	if d := n.Flush(); d != 16 {
		t.Fatalf("flush delivered %d, want 16", d)
	}
	if *got["b"] != 16 {
		t.Fatalf("handler saw %d messages", *got["b"])
	}
}

// runEquivalence is the property body shared with
// TestSendDeliverEquivalence: for one seed, sending every message of a
// random run mix one by one with sync Deliver, and sending each run with
// async DeliverRun followed by one Flush, must produce identical per-node
// Stats, delivery order and payload bytes, simulated time, fault clock
// and outcome counts when the dup/reorder knobs are zero — under link
// loss, a burst channel, a partition and crash windows that open and
// close in the middle of runs.
func runEquivalence(t *testing.T, seed int64) {
	t.Helper()
	senders := []string{"a", "b", "c"}
	runs := genRuns(seed, senders, "r", 24)

	seqNet, seqPlan, seqSeen := equivNet(t, seed, senders, "r")
	equivFaults(seqPlan, seed, runs)
	var seq BatchResult
	for _, r := range runs {
		size := len(r.Payload) / r.Count
		for i := 0; i < r.Count; i++ {
			delivered, err := seqNet.Deliver(r.message(i, size))
			switch {
			case errors.Is(err, ErrNodeDown):
				seq.Down++
			case err != nil:
				t.Fatalf("seed %d: sequential send: %v", seed, err)
			case delivered:
				seq.Delivered++
			default:
				seq.Lost++
			}
		}
	}

	runNet, runPlan, runSeen := equivNet(t, seed, senders, "r")
	equivFaults(runPlan, seed, runs)
	runNet.SetAsync(true)
	var sum BatchResult
	for _, r := range runs {
		res, err := runNet.DeliverRun(r)
		if err != nil {
			t.Fatalf("seed %d: run enqueue: %v", seed, err)
		}
		sum.Queued += res.Queued
		sum.Delivered += res.Delivered
		sum.Lost += res.Lost
		sum.Down += res.Down
	}
	if got := runNet.Flush(); got != sum.Queued {
		t.Fatalf("seed %d: flush delivered %d of %d queued", seed, got, sum.Queued)
	}

	if sum.Queued != seq.Delivered || sum.Lost != seq.Lost || sum.Down != seq.Down || sum.Delivered != 0 {
		t.Fatalf("seed %d: outcomes diverge: sequential %+v, runs %+v", seed, seq, sum)
	}
	if seq.Down == 0 || seq.Lost == 0 {
		t.Fatalf("seed %d: faults not exercised: %+v", seed, seq)
	}
	for _, id := range append(senders, "r") {
		ss := *seqNet.stats[id]
		rs := *runNet.stats[id]
		if ss != rs {
			t.Fatalf("seed %d: node %s stats diverge: sequential %+v, runs %+v", seed, id, ss, rs)
		}
	}
	if sq, rq := strings.Join(*seqSeen, ","), strings.Join(*runSeen, ","); sq != rq {
		t.Fatalf("seed %d: delivery diverges:\nsequential %s\nruns       %s", seed, sq, rq)
	}
	if seqNet.SimTimeMS() != runNet.SimTimeMS() {
		t.Fatalf("seed %d: simulated time diverges: %v vs %v", seed, seqNet.SimTimeMS(), runNet.SimTimeMS())
	}
	if seqNet.msgCount != runNet.msgCount {
		t.Fatalf("seed %d: fault clock diverges: %d vs %d", seed, seqNet.msgCount, runNet.msgCount)
	}
}

// TestFlushReusesQueueAndDropsPayloads pins the steady-state cost of a
// fleet round: once the queue buffers have grown to a round's size, a
// further DeliverRun+Flush round allocates nothing — no per-message
// queue entry, no per-Flush delivery list — and the kept buffers hold
// no payload reference after Flush: senders reuse their payload buffers
// between rounds.
func TestFlushReusesQueueAndDropsPayloads(t *testing.T) {
	const count, size = 4096, 24
	n := New(43)
	delivered := 0
	for _, id := range []string{"a", "r"} {
		if err := n.Register(id, func(Message) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	p := NewFaultPlan()
	p.SetReorderProb(0.1) // exercise the reorder scratch too
	n.SetFaultPlan(p)
	n.SetAsync(true)
	run := Run{From: "a", To: "r", Topic: "t", Count: count, Payload: make([]byte, count*size)}
	round := func() {
		if _, err := n.DeliverRun(run); err != nil {
			t.Fatal(err)
		}
		n.Flush()
	}
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Errorf("steady-state round of %d messages allocates %.0f objects, want 0", count, allocs)
	}
	if delivered != 7*count { // the first round, AllocsPerRun's warm-up, five measured
		t.Errorf("handlers saw %d deliveries, want %d", delivered, 7*count)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.queue) != 0 || cap(n.queue) < count || cap(n.spareQ) < count {
		t.Fatalf("after Flush: queue len %d cap %d, spare cap %d: want drained with capacity kept",
			len(n.queue), cap(n.queue), cap(n.spareQ))
	}
	for _, buf := range [][]queuedRun{n.runs[:cap(n.runs)], n.spareRuns[:cap(n.spareRuns)]} {
		for i, qr := range buf {
			if qr.Payload != nil || qr.From != "" || qr.h != nil || qr.tx != nil {
				t.Fatalf("run record %d still references a flushed run", i)
			}
		}
	}
}

// TestDeliverRunMalformedChargesNothing: a run whose payload its count
// does not divide, a negative count, and a run to an unknown endpoint
// all fail before the radio transmits — nothing charged, no handler run,
// and the fault clock unmoved. An empty run is a no-op.
func TestDeliverRunMalformedChargesNothing(t *testing.T) {
	n, _, got := faultNet(t, 47, "a", "b")
	for _, r := range []Run{
		{From: "a", To: "b", Count: 3, Payload: make([]byte, 7)},
		{From: "a", To: "b", Count: -1},
		{From: "a", To: "b", Count: 0, Payload: []byte("x")},
		{From: "a", To: "ghost", Count: 2, Payload: make([]byte, 4)},
		{From: "ghost", To: "b", Count: 1, Payload: []byte("x")},
	} {
		res, err := n.DeliverRun(r)
		if err == nil {
			t.Fatalf("run %+v accepted", r)
		}
		if res != (BatchResult{}) {
			t.Fatalf("run %+v: result %+v, want nothing transmitted", r, res)
		}
	}
	if res, err := n.DeliverRun(Run{From: "a", To: "b"}); err != nil || res != (BatchResult{}) {
		t.Fatalf("empty run: %+v, %v", res, err)
	}
	if tot := n.Totals(); tot != (Stats{}) {
		t.Fatalf("malformed runs charged %+v", tot)
	}
	if n.msgCount != 0 || *got["b"] != 0 {
		t.Fatalf("fault clock %d, deliveries %d: want both 0", n.msgCount, *got["b"])
	}
}

// spanNet builds the span property's topology: a lossless default link,
// an installed fault plan, sender sinks, and two receivers that log each
// message they are handed, in delivery order — "r" through Register, one
// Message at a time, and "q" through RegisterRun, a run at a time.
func spanNet(t *testing.T, seed int64, senders []string) (*Network, *FaultPlan, *[]string) {
	t.Helper()
	n := New(seed)
	p := NewFaultPlan()
	n.SetFaultPlan(p)
	n.SetDefaultLink(Link{LatencyMS: 0.7})
	for _, id := range senders {
		if err := n.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := &[]string{}
	if err := n.Register("r", func(m Message) { *seen = append(*seen, fmt.Sprintf("r %s:%x", m.Topic, m.Payload)) }); err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterRun("q", func(r Run) {
		size := len(r.Payload) / r.Count
		for i := 0; i < r.Count; i++ {
			*seen = append(*seen, fmt.Sprintf("q %s:%x", r.Topic, r.Payload[i*size:(i+1)*size]))
		}
	}); err != nil {
		t.Fatal(err)
	}
	return n, p, seen
}

// spanRuns is genRuns' mix of 24 runs laid over the six links from the
// senders to the receivers "r" and "q", four runs each.
func spanRuns(seed int64, senders []string) []Run {
	runs := genRuns(seed, senders, "r", 24)
	for i := range runs {
		runs[i].From = senders[i%len(senders)]
		if i/len(senders)%2 == 1 {
			runs[i].To = "q"
		}
	}
	return runs
}

// spanFaults puts faults on some links only: a burst channel on c→r, a
// partition of a↔q and a crash window at sender b, each window opening
// and closing inside runs of the link it cuts. a→r, c→q and b's links
// outside its window have no verdict to make, so their messages queue
// as spans beside the faulted stretches' messages.
func spanFaults(p *FaultPlan, seed int64, runs []Run) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// inside returns a fault-clock position strictly inside a random run
	// from→to (any receiver when to is "").
	inside := func(from, to string) int {
		var at []int
		pos := 0
		for _, r := range runs {
			if r.From == from && (to == "" || r.To == to) {
				at = append(at, pos+1+rng.Intn(r.Count-1))
			}
			pos += r.Count
		}
		return at[rng.Intn(len(at))]
	}
	window := func(from, to string) (int, int) {
		a, b := inside(from, to), inside(from, to)
		if a > b {
			a, b = b, a
		}
		return a, b + 1
	}
	p.SetBurstLink("c", "r", GilbertElliott{PGoodToBad: 0.3, PBadToGood: 0.4, LossBad: 0.8})
	from, to := window("a", "q")
	p.Partition("a", "q", from, to)
	from, to = window("b", "")
	p.Crash("b", from, to)
}

// sendEach sends every message of runs one by one with Deliver and
// classifies the outcomes.
func sendEach(t *testing.T, n *Network, runs []Run) BatchResult {
	t.Helper()
	var res BatchResult
	for _, r := range runs {
		size := len(r.Payload) / r.Count
		for i := 0; i < r.Count; i++ {
			delivered, err := n.Deliver(r.message(i, size))
			switch {
			case errors.Is(err, ErrNodeDown):
				res.Down++
			case err != nil:
				t.Fatalf("send %s→%s: %v", r.From, r.To, err)
			case delivered && n.async:
				res.Queued++
			case delivered:
				res.Delivered++
			default:
				res.Lost++
			}
		}
	}
	return res
}

// sendRuns sends runs with DeliverRun and sums the outcomes.
func sendRuns(t *testing.T, n *Network, runs []Run) BatchResult {
	t.Helper()
	var sum BatchResult
	for _, r := range runs {
		res, err := n.DeliverRun(r)
		if err != nil {
			t.Fatalf("run %s→%s: %v", r.From, r.To, err)
		}
		sum.Queued += res.Queued
		sum.Delivered += res.Delivered
		sum.Lost += res.Lost
		sum.Down += res.Down
	}
	return sum
}

// sameNets reports the first difference between two networks' per-node
// Stats, delivery logs, simulated time (bit for bit) and fault clocks.
func sameNets(a, b *Network, aSeen, bSeen *[]string, ids []string) string {
	for _, id := range ids {
		if as, bs := *a.stats[id], *b.stats[id]; as != bs {
			return fmt.Sprintf("node %s stats %+v vs %+v", id, as, bs)
		}
	}
	if as, bs := strings.Join(*aSeen, ","), strings.Join(*bSeen, ","); as != bs {
		return fmt.Sprintf("delivery diverges:\n%s\n%s", as, bs)
	}
	if math.Float64bits(a.SimTimeMS()) != math.Float64bits(b.SimTimeMS()) {
		return fmt.Sprintf("simulated time %v vs %v", a.SimTimeMS(), b.SimTimeMS())
	}
	if a.msgCount != b.msgCount {
		return fmt.Sprintf("fault clock %d vs %d", a.msgCount, b.msgCount)
	}
	return ""
}

// TestSpanDeliverEquivalence: on a lossless default link, runs sent with
// async DeliverRun and one Flush — the fault-free stretches queued as
// spans and handed to a run handler whole, the faulted ones message by
// message — equal their messages sent one by one with sync Deliver: same
// payload bytes in the same order at both receivers, same Stats on every
// node, same simulated time to the bit, same fault clock and outcomes.
func TestSpanDeliverEquivalence(t *testing.T) {
	senders := []string{"a", "b", "c"}
	ids := append(senders, "r", "q")
	for seed := int64(0); seed < 20; seed++ {
		runs := spanRuns(seed, senders)

		seqNet, seqPlan, seqSeen := spanNet(t, seed, senders)
		spanFaults(seqPlan, seed, runs)
		seq := sendEach(t, seqNet, runs)

		runNet, runPlan, runSeen := spanNet(t, seed, senders)
		spanFaults(runPlan, seed, runs)
		runNet.SetAsync(true)
		sum := sendRuns(t, runNet, runs)
		spans, singles := 0, 0
		for _, s := range runNet.queue {
			if s.n > 1 {
				spans++
			} else if runNet.runs[s.run].Count > 1 {
				singles++
			}
		}
		if spans == 0 || singles == 0 {
			t.Fatalf("seed %d: queue holds %d spans and %d single messages of longer runs, want both", seed, spans, singles)
		}
		if got := runNet.Flush(); got != sum.Queued {
			t.Fatalf("seed %d: flush delivered %d of %d queued", seed, got, sum.Queued)
		}

		if sum.Queued != seq.Delivered || sum.Lost != seq.Lost || sum.Down != seq.Down || sum.Delivered != 0 {
			t.Fatalf("seed %d: outcomes diverge: sequential %+v, runs %+v", seed, seq, sum)
		}
		if seq.Down == 0 || seq.Lost == 0 {
			t.Fatalf("seed %d: faults not exercised: %+v", seed, seq)
		}
		if d := sameNets(seqNet, runNet, seqSeen, runSeen, ids); d != "" {
			t.Fatalf("seed %d: sequential and runs differ: %s", seed, d)
		}
	}
}

// TestSpanDupReorderEquivalence: with a duplicate or reorder knob set
// (either or both), Flush splits spans into single messages before its
// draws, so runs sent with async DeliverRun and flushed equal their
// messages sent as one-message runs and flushed, over two flushed waves:
// same deliveries, Stats, simulated time, fault clock, outcomes and
// Flush counts.
func TestSpanDupReorderEquivalence(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	senders := []string{"a", "b", "c"}
	ids := append(senders, "r", "q")
	knobs := [][2]float64{{0.3, 0.3}, {0.3, 0}, {0, 0.3}} // duplicate, reorder
	for seed := int64(0); seed < 12; seed++ {
		dupP, reoP := knobs[seed%3][0], knobs[seed%3][1]
		runs := spanRuns(seed, senders)
		nets := [2]*Network{}
		seen := [2]*[]string{}
		res := [2]BatchResult{}
		flushed := [2]int{}
		before := snapNetsimObs()
		for k := range nets {
			n, p, s := spanNet(t, seed, senders)
			spanFaults(p, seed, runs)
			p.SetDuplicateProb(dupP)
			p.SetReorderProb(reoP)
			n.SetAsync(true)
			for _, wave := range [][]Run{runs[:len(runs)/2], runs[len(runs)/2:]} {
				var r BatchResult
				if k == 0 {
					r = sendRuns(t, n, wave)
				} else {
					r = sendEach(t, n, wave)
				}
				res[k].Queued += r.Queued
				res[k].Lost += r.Lost
				res[k].Down += r.Down
				flushed[k] += n.Flush()
			}
			nets[k], seen[k] = n, s
		}
		d := snapNetsimObs().sub(before)
		if res[0] != res[1] || flushed[0] != flushed[1] {
			t.Fatalf("seed %d: outcomes %+v flushed %d as runs, %+v flushed %d one by one", seed, res[0], flushed[0], res[1], flushed[1])
		}
		if (d.dup > 0) != (dupP > 0) || (d.reorder > 0) != (reoP > 0) {
			t.Fatalf("seed %d: knobs not exercised: dup %d reorder %d", seed, d.dup, d.reorder)
		}
		if diff := sameNets(nets[0], nets[1], seen[0], seen[1], ids); diff != "" {
			t.Fatalf("seed %d: runs and one-message runs differ: %s", seed, diff)
		}
	}
}

// TestFlushSpanPathAllocatesNothing pins the fault-free fleet path: on a
// lossless link with a plan that has nothing to decide, each run is
// queued as one span and handed to its run handler in one call, a
// steady-state DeliverRun+Flush round allocates nothing, and the kept
// buffers reference no payload after Flush.
func TestFlushSpanPathAllocatesNothing(t *testing.T) {
	const count, size = 4096, 24
	senders := []string{"a", "b", "c"}
	n := New(43)
	for _, id := range senders {
		if err := n.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	calls, delivered := 0, 0
	if err := n.RegisterRun("r", func(r Run) { calls++; delivered += r.Count }); err != nil {
		t.Fatal(err)
	}
	n.SetFaultPlan(NewFaultPlan())
	n.SetDefaultLink(Link{LatencyMS: 1})
	n.SetAsync(true)
	var runs []Run
	for _, from := range senders {
		runs = append(runs, Run{From: from, To: "r", Topic: "t", Count: count, Payload: make([]byte, count*size)})
	}
	queued := 0
	round := func() {
		for _, r := range runs {
			if _, err := n.DeliverRun(r); err != nil {
				t.Fatal(err)
			}
		}
		n.mu.Lock()
		queued = len(n.queue)
		n.mu.Unlock()
		n.Flush()
	}
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Errorf("steady-state round of %d runs of %d messages allocates %.0f objects, want 0", len(runs), count, allocs)
	}
	if queued != len(runs) {
		t.Errorf("a round queued %d entries for %d runs, want one span per run", queued, len(runs))
	}
	if calls != 7*len(runs) || delivered != 7*len(runs)*count { // the first round, AllocsPerRun's warm-up, five measured
		t.Errorf("handler ran %d times for %d messages, want %d and %d", calls, delivered, 7*len(runs), 7*len(runs)*count)
	}
	if tot := n.Totals(); tot.RxMessages != 7*len(runs)*count || tot.RxBytes != tot.TxBytes || tot.Dropped != 0 {
		t.Errorf("totals %+v after %d messages", tot, 7*len(runs)*count)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.queue) != 0 {
		t.Fatalf("%d entries still queued after Flush", len(n.queue))
	}
	for _, buf := range [][]queuedRun{n.runs[:cap(n.runs)], n.spareRuns[:cap(n.spareRuns)]} {
		for i, qr := range buf {
			if qr.Payload != nil || qr.From != "" || qr.h != nil || qr.tx != nil {
				t.Fatalf("run record %d still references a flushed run", i)
			}
		}
	}
}

// TestFlushDropsSpanForReceiverNowDown: a span whose receiver is down at
// Flush is dropped whole — the sender is charged one Dropped and
// netsim.fault.down counts one per message — and its handler never runs.
func TestFlushDropsSpanForReceiverNowDown(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	before := snapNetsimObs()
	n, p, got := faultNet(t, 59, "a", "b", "c")
	n.SetAsync(true)
	for _, to := range []string{"b", "c"} {
		if res, err := n.DeliverRun(Run{From: "a", To: to, Count: 5, Payload: make([]byte, 15)}); err != nil || res.Queued != 5 {
			t.Fatalf("run to %s: %+v, %v", to, res, err)
		}
	}
	if len(n.queue) != 2 {
		t.Fatalf("%d queue entries for two fault-free runs, want 2", len(n.queue))
	}
	p.Down("b")
	if d := n.Flush(); d != 5 {
		t.Fatalf("flush delivered %d, want c's 5", d)
	}
	if *got["b"] != 0 || *got["c"] != 5 {
		t.Fatalf("handlers saw b=%d c=%d, want 0 and 5", *got["b"], *got["c"])
	}
	d := snapNetsimObs().sub(before)
	if sa := *n.stats["a"]; sa.Dropped != 5 || d.down != 5 || d.lost != 5 {
		t.Fatalf("sender Dropped %d, obs down %d lost %d: want 5 each", sa.Dropped, d.down, d.lost)
	}
	if sc := *n.stats["c"]; sc.RxMessages != 5 || sc.RxBytes != 15 {
		t.Fatalf("receiver c charged %+v, want 5 messages and 15 bytes", sc)
	}
}

// TestFlushObservesLatencyOncePerSpan: a delivered span costs Flush one
// latency-histogram call, whatever its length, and one clock update. The
// clock keeps the bits of one addition per delivered copy: exact for
// whole-millisecond latency in closed form, and by the per-copy loop for
// a latency that is not, with duplicated copies counted twice.
func TestFlushObservesLatencyOncePerSpan(t *testing.T) {
	type call struct {
		v float64
		k int
	}
	var calls []call
	defer func(f func(float64, int)) { observeLatency = f }(observeLatency)
	observeLatency = func(v float64, k int) { calls = append(calls, call{v, k}) }

	const count, size = 5000, 24
	for _, latency := range []float64{1, 0.1} {
		calls = calls[:0]
		n := New(61)
		for _, id := range []string{"a", "b"} {
			if err := n.Register(id, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.RegisterRun("r", func(Run) {}); err != nil {
			t.Fatal(err)
		}
		n.SetDefaultLink(Link{LatencyMS: latency})
		n.SetAsync(true)
		for _, from := range []string{"a", "b"} {
			if _, err := n.DeliverRun(Run{From: from, To: "r", Count: count, Payload: make([]byte, count*size)}); err != nil {
				t.Fatal(err)
			}
		}
		n.Flush()
		if len(calls) != 2 || calls[0] != (call{latency, count}) || calls[1] != (call{latency, count}) {
			t.Fatalf("latency %v: histogram calls %v, want two of %d copies", latency, calls, count)
		}
		want := 0.0
		for range 2 * count {
			want += latency
		}
		if got := n.SimTimeMS(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("latency %v: simulated time %v, want the per-copy sum %v", latency, got, want)
		}
	}

	// Duplication splits spans into single messages: one call per message,
	// two copies for each duplicated one.
	calls = calls[:0]
	n, p, _ := faultNet(t, 67, "a", "b")
	n.SetAsync(true)
	p.SetDuplicateProb(0.5)
	if _, err := n.DeliverRun(Run{From: "a", To: "b", Count: 64, Payload: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	delivered := n.Flush()
	copies := 0
	for _, c := range calls {
		copies += c.k
		if c.k != 1 && c.k != 2 {
			t.Fatalf("a single message observed %d times", c.k)
		}
	}
	if len(calls) != 64 || copies != delivered || delivered == 64 {
		t.Fatalf("%d calls for %d copies of 64 messages (%d delivered), want 64 calls, some duplicated", len(calls), copies, delivered)
	}
}
