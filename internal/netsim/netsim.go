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

// Network is an in-process simulated network. All methods are safe for
// concurrent use.
type Network struct {
	mu       sync.Mutex
	rng      *rand.Rand         // guarded by mu
	handlers map[string]Handler // guarded by mu
	stats    map[string]*Stats  // guarded by mu
	defLink  Link               // guarded by mu
	simTime  float64            // guarded by mu; accumulated virtual latency across delivered messages
	msgCount int                // guarded by mu; transmission attempts so far (fault-plan clock)
	plan     *FaultPlan         // guarded by mu; nil = no faults
	async    bool               // guarded by mu; queue deliveries until Flush
	queue    []Message          // guarded by mu; pending async deliveries
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

// txOutcome classifies one transmission attempt inside transmitLocked.
type txOutcome uint8

const (
	txErr       txOutcome = iota // unknown endpoint: nothing charged
	txDown                       // a party is down: nothing charged
	txLost                       // charged to the sender, dropped in flight
	txQueued                     // accepted onto the async queue
	txDelivered                  // sync delivery: rx charged, handler pending
)

// obsDelta batches observability increments accumulated while the
// network lock is held; flush applies them to the global counters after
// unlock, so a DeliverBatch of thousands of messages costs a handful of
// atomic adds instead of a few per message.
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

// transmitLocked runs one transmission attempt under n.mu: fault-plan
// verdict, tx accounting, loss draw, then either async enqueue or sync
// rx accounting. It consumes exactly the RNG draws Deliver historically
// consumed, in the same order, so a batch of calls is stream-identical
// to sequential Deliver calls with the same seed. Observability deltas
// go to d (the caller flushes after unlock); on txDelivered the caller
// still owes the handler invocation and the latency observation. downID
// names the down endpoint on txDown; err is non-nil only for txErr.
func (n *Network) transmitLocked(msg Message, d *obsDelta) (out txOutcome, h Handler, latencyMS float64, downID string, err error) {
	if _, ok := n.handlers[msg.From]; !ok {
		return txErr, nil, 0, "", fmt.Errorf("%w: sender %q", ErrUnknownNode, msg.From)
	}
	h, ok := n.handlers[msg.To]
	if !ok {
		return txErr, nil, 0, "", fmt.Errorf("%w: receiver %q", ErrUnknownNode, msg.To)
	}
	link := n.defLink
	idx := n.msgCount
	n.msgCount++
	size := len(msg.Payload)
	skipLoss := false
	if n.plan != nil {
		act, id := n.plan.verdict(msg.From, msg.To, idx, n.rng)
		switch act {
		case faultDown:
			d.down++
			return txDown, nil, 0, id, nil
		case faultPartition, faultBurst:
			tx := n.stats[msg.From]
			tx.TxMessages++
			tx.TxBytes += size
			tx.Dropped++
			d.txMsgs++
			d.txBytes += int64(size)
			d.lost++
			if act == faultPartition {
				d.partition++
			} else {
				d.burst++
			}
			return txLost, nil, 0, "", nil
		case faultDeliverBurst:
			skipLoss = true // the burst channel already decided delivery
		}
	}
	tx := n.stats[msg.From]
	tx.TxMessages++
	tx.TxBytes += size
	d.txMsgs++
	d.txBytes += int64(size)
	if !skipLoss && link.LossProb > 0 && n.rng.Float64() < link.LossProb {
		tx.Dropped++
		d.lost++
		return txLost, nil, 0, "", nil // lost in transit; not an error
	}
	if n.async {
		n.queue = append(n.queue, msg)
		return txQueued, nil, 0, "", nil // accepted; rx accounting happens at Flush
	}
	rx := n.stats[msg.To]
	rx.RxMessages++
	rx.RxBytes += size
	n.simTime += link.LatencyMS
	d.rxMsgs++
	d.rxBytes += int64(size)
	return txDelivered, h, link.LatencyMS, "", nil
}

// Deliver is Send exposing the delivery outcome: delivered=false with a
// nil error means the message was transmitted (and charged) but lost in
// flight — loss is not an error, but interceptors bridging this network
// into a bus need to know whether to fan out. In async mode delivered
// means "queued"; the fate of queued messages is decided at Flush.
func (n *Network) Deliver(msg Message) (delivered bool, err error) {
	var d obsDelta
	n.mu.Lock()
	out, h, latency, downID, err := n.transmitLocked(msg, &d)
	n.mu.Unlock()
	d.flush()
	switch out {
	case txErr:
		return false, err
	case txDown:
		return false, &NodeDownError{ID: downID}
	case txLost:
		return false, nil
	case txQueued:
		return true, nil
	}
	obsLatency.Observe(latency)
	if h != nil {
		h(msg)
	}
	return true, nil
}

// BatchResult classifies the messages of one DeliverBatch call.
type BatchResult struct {
	Queued    int // accepted onto the async queue (fate decided at Flush)
	Delivered int // sync mode: rx charged and handler run
	Lost      int // charged to the sender, dropped in flight
	Down      int // a down endpoint: skipped, nothing charged
}

// DeliverBatch transmits a slice of messages under one lock acquisition
// — the fleet layer's enqueue path, where a shard's round of measurement
// envelopes would otherwise pay a lock handshake and a few atomic
// counter updates per message. Per-message semantics are identical to
// calling Deliver in slice order (same fault verdicts, same RNG draw
// order, same per-node accounting), so batched enqueue followed by Flush
// is equivalent to sequential sends; TestBatchedEnqueueMatchesSequentialSend
// pins this. Two deviations, both deliberate: a down endpoint does not
// fail the batch — the message is skipped with nothing charged (the
// "error ⇒ nothing charged" contract) and counted in Down — and only an
// unknown endpoint aborts, returning the partial result alongside the
// error. In sync mode handlers run after the lock is released, in slice
// order.
func (n *Network) DeliverBatch(msgs []Message) (BatchResult, error) {
	type delivery struct {
		msg     Message
		h       Handler
		latency float64
	}
	var (
		res    BatchResult
		d      obsDelta
		out    []delivery
		batErr error
	)
	n.mu.Lock()
	for _, m := range msgs {
		o, h, latency, _, err := n.transmitLocked(m, &d)
		if o == txErr {
			batErr = err
			break // abort; messages already charged still get their handlers
		}
		switch o {
		case txDown:
			res.Down++
		case txLost:
			res.Lost++
		case txQueued:
			res.Queued++
		case txDelivered:
			res.Delivered++
			out = append(out, delivery{m, h, latency})
		}
	}
	n.mu.Unlock()
	d.flush()
	for _, dv := range out {
		obsLatency.Observe(dv.latency)
		if dv.h != nil {
			dv.h(dv.msg)
		}
	}
	return res, batErr
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
func (n *Network) Flush() int {
	type delivery struct {
		msg     Message
		h       Handler
		latency float64
	}
	var d obsDelta
	n.mu.Lock()
	q := n.queue
	var dupP, reoP float64
	if n.plan != nil {
		dupP, reoP = n.plan.dupReorder()
	}
	if reoP > 0 && len(q) > 1 {
		kept := make([]Message, 0, len(q))
		var deferred []Message
		for _, m := range q {
			if n.rng.Float64() < reoP {
				deferred = append(deferred, m)
				d.reorder++
			} else {
				kept = append(kept, m)
			}
		}
		q = append(kept, deferred...)
	}
	// One delivery per queued message unless a duplicate draw doubles it;
	// append covers those.
	out := make([]delivery, 0, len(q))
	for _, m := range q {
		// Down check first: a message to a receiver that crashed after
		// enqueue is dropped before the duplicate draw, so the dup RNG
		// stream and netsim.fault.dup only see deliverable messages and
		// the sender is charged one Dropped regardless of what a
		// duplicate draw would have said.
		if n.plan != nil && n.plan.nodeDown(m.To, n.msgCount) {
			n.stats[m.From].Dropped++
			d.lost++
			d.down++
			continue
		}
		copies := 1
		if dupP > 0 && n.rng.Float64() < dupP {
			copies = 2
			d.duplicate++
		}
		latency := n.defLink.LatencyMS
		size := len(m.Payload)
		rx := n.stats[m.To]
		for c := 0; c < copies; c++ {
			rx.RxMessages++
			rx.RxBytes += size
			n.simTime += latency
			d.rxMsgs++
			d.rxBytes += int64(size)
			out = append(out, delivery{m, n.handlers[m.To], latency})
		}
	}
	// Keep the drained queue's backing array for the next round — growing a
	// quarter-million-message queue from nil costs several times its final
	// size — but drop its payload references: senders reuse payload buffers
	// once Flush returns.
	clear(n.queue)
	n.queue = n.queue[:0]
	n.mu.Unlock()
	d.flush()
	for _, dv := range out {
		obsLatency.Observe(dv.latency)
		if dv.h != nil {
			dv.h(dv.msg)
		}
	}
	return len(out)
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
