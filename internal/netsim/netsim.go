// Package netsim is the simulated transport substrate: an in-process
// message network with link loss and latency bookkeeping and — the
// part the evaluation leans on — exact per-node transmission and byte
// accounting. The paper's O(N²)→O(NM) transmission claim (after Luo et
// al.) is about how many radio sends the gathering scheme needs, which the
// counters here measure directly.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Global traffic observability across all Network instances (no-ops until
// obs.Enable). The per-network Stats counters remain the authoritative
// per-node accounting; these mirror them so a live /metrics.json or an
// experiments -obs-out dump shows the same byte totals as Totals().
var (
	obsTxMessages = obs.GetCounter("netsim.tx.messages")
	obsTxBytes    = obs.GetCounter("netsim.tx.bytes")
	obsRxMessages = obs.GetCounter("netsim.rx.messages")
	obsRxBytes    = obs.GetCounter("netsim.rx.bytes")
	obsLost       = obs.GetCounter("netsim.lost.messages")
	obsLatency    = obs.GetHistogram("netsim.link.latency_ms", obs.LatencyBuckets)
)

// Message is one datagram between simulated nodes.
type Message struct {
	From, To string
	Topic    string
	Payload  []byte
}

// Run is Count equal-size messages on one From→To link under one Topic:
// message i is Payload[i*size:(i+1)*size], size = len(Payload)/Count. A
// fleet shard's round of envelopes is one Run, so the network moves it
// as a column — one endpoint lookup, one fault-plan resolution, one
// queue record — not as Count Message values.
type Run struct {
	From, To string
	Topic    string
	Count    int
	Payload  []byte
}

// msgSize validates the run's shape and returns its per-message size.
func (r *Run) msgSize() (int, error) {
	// Queue slots index messages with int32.
	if r.Count < 0 || r.Count > math.MaxInt32 ||
		len(r.Payload)%max(r.Count, 1) != 0 || (r.Count == 0 && len(r.Payload) > 0) {
		return 0, fmt.Errorf("netsim: run of %d messages cannot split a %d-byte payload", r.Count, len(r.Payload))
	}
	return len(r.Payload) / max(r.Count, 1), nil
}

func (r *Run) message(i, size int) Message {
	return Message{From: r.From, To: r.To, Topic: r.Topic, Payload: r.Payload[i*size : (i+1)*size]}
}

// Handler consumes a delivered message.
type Handler func(Message)

// Link describes link quality. Every link of a network shares one
// (SetDefaultLink); fault plans add per-node and per-pair faults on top.
type Link struct {
	LatencyMS float64 // recorded, not slept: simulation time bookkeeping
	LossProb  float64 // [0,1]
}

// Stats is a snapshot of one node's traffic counters.
type Stats struct {
	TxMessages, RxMessages int
	TxBytes, RxBytes       int
	Dropped                int
}

// queuedRun is a run with a message on the async queue, its endpoints
// resolved at enqueue.
type queuedRun struct {
	Run
	size   int
	h      Handler
	tx, rx *Stats
	down   bool // Flush scratch: the receiver is down at this Flush
}

// slot is one queued message, idx of runs[run]. copies is Flush's verdict
// (0 dropped, 1, or 2 duplicated), read by its unlocked handler pass.
type slot struct {
	run, idx int32
	copies   uint8
}

// Network is an in-process simulated network. All methods are safe for
// concurrent use.
type Network struct {
	mu        sync.Mutex
	rng       *rand.Rand         // guarded by mu
	handlers  map[string]Handler // guarded by mu
	stats     map[string]*Stats  // guarded by mu
	defLink   Link               // guarded by mu
	simTime   float64            // guarded by mu; accumulated virtual latency across delivered messages
	msgCount  int                // guarded by mu; transmission attempts so far (fault-plan clock)
	plan      *FaultPlan         // guarded by mu; nil = no faults
	async     bool               // guarded by mu; queue deliveries until Flush
	queue     []slot             // guarded by mu; pending async deliveries, in enqueue order
	runs      []queuedRun        // guarded by mu; the runs queue slots index
	spareQ    []slot             // guarded by mu; a drained queue kept for the next Flush to install
	spareRuns []queuedRun        // guarded by mu; its run records, cleared of payloads
	deferred  []slot             // guarded by mu; Flush's reorder scratch
}

// ErrUnknownNode reports a send to an unregistered node.
var ErrUnknownNode = errors.New("netsim: unknown node")

// New returns an empty network; seed makes loss deterministic.
func New(seed int64) *Network {
	return &Network{
		rng:      rand.New(rand.NewSource(seed)),
		handlers: make(map[string]Handler),
		stats:    make(map[string]*Stats),
	}
}

// Register adds a node with its delivery handler (nil for a sink that
// just counts).
func (n *Network) Register(id string, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.handlers[id]; ok {
		return fmt.Errorf("netsim: node %q already registered", id)
	}
	n.handlers[id] = h
	n.stats[id] = &Stats{}
	return nil
}

// SetDefaultLink sets the quality of every link.
func (n *Network) SetDefaultLink(l Link) {
	n.mu.Lock()
	n.defLink = l
	n.mu.Unlock()
}

// SetFaultPlan installs (or, with nil, removes) the fault plan consulted
// on every transmission attempt. See FaultPlan for the semantics.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	n.plan = p
	n.mu.Unlock()
}

// SetAsync toggles asynchronous delivery: when on, messages that survive
// loss are queued instead of handled inline, and Flush delivers the
// batch (applying the fault plan's duplicate/reorder knobs). Call Flush
// before turning async off, or queued messages will sit until the next
// Flush.
func (n *Network) SetAsync(on bool) {
	n.mu.Lock()
	n.async = on
	n.mu.Unlock()
}

// Send delivers a message, applying the fault plan and link loss and
// counting traffic. The transmission is charged to the sender even if
// the message is lost (the radio still spent the energy), but NOT when
// an error is returned: a down or unknown endpoint is detected before
// the radio transmits, so "error ⇒ nothing charged" holds. Delivery is
// synchronous unless SetAsync is on.
func (n *Network) Send(msg Message) error {
	_, err := n.Deliver(msg)
	return err
}

// obsDelta batches observability increments accumulated while the
// network lock is held; flush applies them to the global counters after
// unlock, so a run of thousands of messages costs a handful of atomic
// adds instead of a few per message.
type obsDelta struct {
	txMsgs, txBytes, rxMsgs, rxBytes, lost     int64
	down, partition, burst, duplicate, reorder int64
}

func (d *obsDelta) flush() {
	if d.txMsgs != 0 {
		obsTxMessages.Add(d.txMsgs)
		obsTxBytes.Add(d.txBytes)
	}
	if d.rxMsgs != 0 {
		obsRxMessages.Add(d.rxMsgs)
		obsRxBytes.Add(d.rxBytes)
	}
	if d.lost != 0 {
		obsLost.Add(d.lost)
	}
	if d.down != 0 {
		obsFaultDown.Add(d.down)
	}
	if d.partition != 0 {
		obsFaultPartition.Add(d.partition)
	}
	if d.burst != 0 {
		obsFaultBurst.Add(d.burst)
	}
	if d.duplicate != 0 {
		obsFaultDup.Add(d.duplicate)
	}
	if d.reorder != 0 {
		obsFaultReorder.Add(d.reorder)
	}
}

// BatchResult classifies the messages of one DeliverRun or DeliverBatch
// call.
type BatchResult struct {
	Queued    int // accepted onto the async queue (fate decided at Flush)
	Delivered int // sync mode: rx charged and handler run
	Lost      int // charged to the sender, dropped in flight
	Down      int // a down endpoint: skipped, nothing charged
}

// runTally accumulates one call's outcomes while the lock is held.
type runTally struct {
	res    BatchResult
	d      obsDelta
	downID string // the down endpoint of the last refused message
}

// runLocked is the network's one transmit loop. It sends messages start,
// start+1, … of r with endpoints, Stats and fault plan resolved once; per
// message it makes the verdict, the tx accounting and the loss draw a
// lone Deliver makes, in the same order, so a run is stream-identical to
// its messages sent one by one. In sync mode it returns the index of the
// first delivered message, whose handler the caller owes (unlocked) before
// resuming; otherwise r.Count. An unknown endpoint fails uncharged.
func (n *Network) runLocked(r *Run, size, start int, t *runTally) (int, Handler, error) {
	tx, ok := n.stats[r.From]
	if !ok {
		return r.Count, nil, fmt.Errorf("%w: sender %q", ErrUnknownNode, r.From)
	}
	h, ok := n.handlers[r.To]
	if !ok {
		return r.Count, nil, fmt.Errorf("%w: receiver %q", ErrUnknownNode, r.To)
	}
	rx := n.stats[r.To]
	var lf *linkFaults // nil: no plan installed
	if n.plan != nil {
		n.plan.mu.Lock() // Network.mu → FaultPlan.mu, never the reverse
		defer n.plan.mu.Unlock()
		v := n.plan.linkLocked(r.From, r.To)
		lf = &v
	}
	link := n.defLink
	queued := -1 // r's index in n.runs once a message of it is queued
	for i := start; i < r.Count; i++ {
		idx := n.msgCount
		n.msgCount++
		act := faultNone
		if lf != nil {
			act = lf.verdict(idx, n.rng)
		}
		if act == faultSenderDown || act == faultReceiverDown {
			t.res.Down++
			t.d.down++
			t.downID = r.To
			if act == faultSenderDown {
				t.downID = r.From
			}
			continue
		}
		tx.TxMessages++
		tx.TxBytes += size
		t.d.txMsgs++
		t.d.txBytes += int64(size)
		lost := act == faultPartition || act == faultBurst ||
			act == faultNone && link.LossProb > 0 && n.rng.Float64() < link.LossProb
		if act == faultPartition {
			t.d.partition++
		} else if act == faultBurst {
			t.d.burst++
		}
		if lost {
			tx.Dropped++
			t.d.lost++
			t.res.Lost++
			continue // charged, dropped in flight; not an error
		}
		if n.async {
			if queued < 0 {
				queued = len(n.runs)
				n.runs = append(n.runs, queuedRun{Run: *r, size: size, h: h, tx: tx, rx: rx})
			}
			n.queue = append(n.queue, slot{run: int32(queued), idx: int32(i)})
			t.res.Queued++
			continue // rx accounting happens at Flush
		}
		rx.RxMessages++
		rx.RxBytes += size
		n.simTime += link.LatencyMS
		t.d.rxMsgs++
		t.d.rxBytes += int64(size)
		t.res.Delivered++
		obsLatency.Observe(link.LatencyMS)
		return i, h, nil
	}
	return r.Count, h, nil
}

// DeliverRun transmits r's messages in order under one lock acquisition:
// the fleet's enqueue path, one run per shard per round. Each message
// fares as if sent alone with Deliver — same fault verdicts, RNG draws and
// accounting — so a run plus Flush equals sequential sends
// (TestSendDeliverEquivalence). The plan is resolved once per run: a plan
// mutated while a run is in flight takes effect at the next run. A down
// endpoint skips its messages uncharged, counted in Down; a malformed run
// (Count does not divide the payload) or an unknown endpoint errors with
// nothing charged. In sync mode each delivered message's handler runs
// unlocked before the next is sent. The network reads r.Payload until the
// Flush that drains it.
func (n *Network) DeliverRun(r Run) (BatchResult, error) {
	var t runTally
	size, err := r.msgSize()
	for i := 0; err == nil && i < r.Count; i++ {
		var h Handler
		n.mu.Lock()
		i, h, err = n.runLocked(&r, size, i, &t)
		n.mu.Unlock()
		t.d.flush()
		t.d = obsDelta{}
		if i < r.Count && h != nil {
			h(r.message(i, size))
		}
	}
	return t.res, err
}

// Deliver is Send exposing the delivery outcome: delivered=false with a
// nil error means the message was transmitted (and charged) but lost in
// flight — loss is not an error, but interceptors bridging this network
// into a bus need to know whether to fan out. In async mode delivered
// means "queued"; the fate of queued messages is decided at Flush. It is
// a one-message run.
func (n *Network) Deliver(msg Message) (delivered bool, err error) {
	var (
		r Run
		t runTally
	)
	// Field by field: a composite literal is built in a temporary and
	// copied, which shows in the cost of a Send.
	r.From, r.To, r.Topic, r.Count, r.Payload = msg.From, msg.To, msg.Topic, 1, msg.Payload
	n.mu.Lock()
	at, h, err := n.runLocked(&r, len(msg.Payload), 0, &t)
	n.mu.Unlock()
	t.d.flush()
	switch {
	case err != nil:
		return false, err
	case t.res.Down > 0:
		return false, &NodeDownError{ID: t.downID}
	case at == 0 && h != nil:
		h(msg)
	}
	return t.res.Lost == 0, nil
}

// DeliverBatch sends msgs as one-message runs under one lock, in order,
// with DeliverRun's semantics; an unknown endpoint aborts with the
// partial result. In sync mode the lock is released around each
// handler. It stays while bench/ calls it; DeliverRun is the fleet path.
func (n *Network) DeliverBatch(msgs []Message) (BatchResult, error) {
	var (
		t   runTally
		err error
	)
	n.mu.Lock()
	for i := 0; i < len(msgs) && err == nil; i++ {
		m := &msgs[i]
		r := Run{From: m.From, To: m.To, Topic: m.Topic, Count: 1, Payload: m.Payload}
		var (
			at int
			h  Handler
		)
		if at, h, err = n.runLocked(&r, len(m.Payload), 0, &t); at == 0 && h != nil {
			n.mu.Unlock()
			h(*m)
			n.mu.Lock()
		}
	}
	n.mu.Unlock()
	t.d.flush()
	return t.res, err
}

// Flush delivers the async queue, applying the fault plan's reorder and
// duplicate knobs: each message may be deferred behind the rest of the
// batch, and each delivery may be doubled.
//
// Charged-vs-delivered invariant (the queued-message analogue of Send's
// "error ⇒ nothing charged"): every queued message was already tx-charged
// to its sender at enqueue, and Flush resolves it exactly once —
//
//   - receiver down at flush time: the sender is charged exactly one
//     Dropped, nothing is rx-charged, and the duplicate draw is never
//     consulted (a copy of a message that cannot be delivered is not a
//     duplicate event);
//   - otherwise: rx messages/bytes and link latency are charged once per
//     delivered copy, and n.simTime accumulates in delivery order — the
//     queue order after the reorder pass, which is the order handlers run.
//
// Under this contract the obs mirrors reconcile with Totals():
// netsim.rx.messages grows by exactly the handler deliveries performed,
// netsim.lost.messages by the senders' Dropped growth, netsim.fault.dup
// only for copies actually delivered, and netsim.fault.down once per
// message dropped to a down receiver. TestFlushAccountingInvariant pins
// all of it. Returns the number of handler deliveries performed.
// Handlers run unlocked on a detached queue, so they may send meanwhile.
func (n *Network) Flush() int {
	var d obsDelta
	n.mu.Lock()
	if len(n.queue) == 0 {
		n.mu.Unlock()
		return 0
	}
	q, runs := n.queue, n.runs
	n.queue, n.runs = n.spareQ[:0], n.spareRuns[:0]
	n.spareQ, n.spareRuns = nil, nil
	var dupP, reoP float64
	if n.plan != nil {
		dupP, reoP = n.plan.dupReorder()
	}
	if reoP > 0 && len(q) > 1 {
		kept, deferred := q[:0], n.deferred[:0]
		for _, s := range q {
			if n.rng.Float64() < reoP {
				deferred = append(deferred, s)
				d.reorder++
			} else {
				kept = append(kept, s)
			}
		}
		q = append(kept, deferred...)
		n.deferred = deferred[:0]
	}
	// The fault clock is still during a Flush: one down check per run.
	// It precedes the duplicate draw, so the dup RNG stream and
	// netsim.fault.dup only see deliverable messages, and the sender of
	// an undeliverable one is charged one Dropped whatever a duplicate
	// draw would have said.
	for i := range runs {
		runs[i].down = n.plan != nil && n.plan.nodeDown(runs[i].To, n.msgCount)
	}
	latency := n.defLink.LatencyMS
	delivered := 0
	for i := range q {
		s := &q[i]
		qr := &runs[s.run]
		if qr.down {
			qr.tx.Dropped++
			d.lost++
			d.down++
			s.copies = 0
			continue
		}
		s.copies = 1
		if dupP > 0 && n.rng.Float64() < dupP {
			s.copies = 2
			d.duplicate++
		}
		for c := uint8(0); c < s.copies; c++ {
			qr.rx.RxMessages++
			qr.rx.RxBytes += qr.size
			n.simTime += latency
			d.rxMsgs++
			d.rxBytes += int64(qr.size)
		}
		delivered += int(s.copies)
	}
	n.mu.Unlock()
	d.flush()
	for _, s := range q {
		qr := &runs[s.run]
		for c := uint8(0); c < s.copies; c++ {
			obsLatency.Observe(latency)
			if qr.h != nil {
				qr.h(qr.message(int(s.idx), qr.size))
			}
		}
	}
	// Keep the drained buffers for a later Flush, minus their payload
	// references: senders reuse payload buffers once Flush returns.
	clear(runs)
	n.mu.Lock()
	if cap(n.spareQ) < cap(q) {
		n.spareQ, n.spareRuns = q[:0], runs[:0]
	}
	n.mu.Unlock()
	return delivered
}

// Totals sums the counters across all nodes.
func (n *Network) Totals() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t Stats
	for _, s := range n.stats {
		t.TxMessages += s.TxMessages
		t.RxMessages += s.RxMessages
		t.TxBytes += s.TxBytes
		t.RxBytes += s.RxBytes
		t.Dropped += s.Dropped
	}
	return t
}

// MaxRx returns the node with the highest receive count and that count.
func (n *Network) MaxRx() (string, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]string, 0, len(n.stats))
	for id := range n.stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	best, bestN := "", -1
	for _, id := range ids {
		if n.stats[id].RxMessages > bestN {
			best, bestN = id, n.stats[id].RxMessages
		}
	}
	return best, bestN
}

// SimTimeMS returns the accumulated virtual latency of all delivered
// messages.
func (n *Network) SimTimeMS() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.simTime
}
