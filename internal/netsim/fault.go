// Fault-injection substrate: a FaultPlan scripts link partitions, node
// crash/restart, Gilbert–Elliott burst loss, and duplicate/reorder
// corruption for the async delivery path. Every fault decision is keyed
// on the network's deterministic message counter or drawn from its
// seeded RNG — never wall clock — so a faulted run replays identically
// from its seed, which is what lets the chaos tests assert exact
// outcomes under GOMAXPROCS=1 and N alike.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/obs"
)

// Fault observability (no-ops until obs.Enable). These count injected
// faults by mechanism; the drops they cause are additionally counted in
// netsim.lost.messages and the per-node Stats so Totals() stays the
// authoritative accounting.
var (
	obsFaultDown      = obs.GetCounter("netsim.fault.down")
	obsFaultPartition = obs.GetCounter("netsim.fault.partitioned")
	obsFaultBurst     = obs.GetCounter("netsim.fault.burst_lost")
	obsFaultDup       = obs.GetCounter("netsim.fault.duplicated")
	obsFaultReorder   = obs.GetCounter("netsim.fault.reordered")
)

// ErrNodeDown is the sentinel matched by errors.Is for sends involving a
// crashed node. The concrete error is a *NodeDownError carrying the node
// ID; it marks itself retryable so the bus retry layer treats a crashed
// peer as transient (it may restart).
var ErrNodeDown = errors.New("netsim: node down")

// NodeDownError reports a send to or from a node the fault plan has
// taken down. No transmission is charged: the failure is detected at the
// MAC/route layer before the radio spends energy, which keeps the
// "error ⇒ nothing charged" accounting invariant that Broadcast's
// attempted count relies on.
type NodeDownError struct{ ID string }

func (e *NodeDownError) Error() string { return fmt.Sprintf("netsim: node %q down", e.ID) }

// Is matches the ErrNodeDown sentinel.
func (e *NodeDownError) Is(target error) bool { return target == ErrNodeDown }

// Retryable marks the failure transient for retry-policy classification:
// a crashed node may restart within the caller's deadline.
func (e *NodeDownError) Retryable() bool { return true }

// GilbertElliott parameterizes a two-state burst-loss channel: the link
// flips between a good and a bad state with the given transition
// probabilities, and drops messages at the state's loss rate. Configured
// on a link it replaces the link's plain LossProb model.
type GilbertElliott struct {
	PGoodToBad float64 // per-message P(good → bad)
	PBadToGood float64 // per-message P(bad → good)
	LossGood   float64 // loss probability while good (often 0)
	LossBad    float64 // loss probability while bad (the burst)
}

// window is a half-open interval [From, To) of network message counts.
type window struct{ from, to int }

func (w window) contains(i int) bool { return i >= w.from && i < w.to }

// burstLink is one Gilbert–Elliott channel's live state.
type burstLink struct {
	cfg GilbertElliott
	bad bool
}

// FaultPlan scripts deterministic failures for one Network. All
// schedules are keyed on the network's message counter (the index Send
// assigns to each transmission attempt), not wall clock, so a plan
// replays identically for a fixed seed. A plan is safe for concurrent
// use and may be mutated while traffic flows (Down/Up model a live
// operator or supervisor); a mutation takes effect at the next run.
type FaultPlan struct {
	mu          sync.Mutex
	down        map[string]bool       // guarded by mu; nodes currently crashed
	crashes     map[string][]window   // guarded by mu; scheduled crash windows per node
	parts       map[string][]window   // guarded by mu; partition windows per directed link "a→b"
	burst       map[string]*burstLink // guarded by mu; Gilbert–Elliott state per directed link
	dupProb     float64               // guarded by mu; async duplicate probability
	reorderProb float64               // guarded by mu; async reorder probability
}

// NewFaultPlan returns an empty plan (no faults).
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{
		down:    make(map[string]bool),
		crashes: make(map[string][]window),
		parts:   make(map[string][]window),
		burst:   make(map[string]*burstLink),
	}
}

// Down crashes a node immediately: sends to or from it return a typed
// *NodeDownError until Up is called.
func (p *FaultPlan) Down(id string) {
	p.mu.Lock()
	p.down[id] = true
	p.mu.Unlock()
}

// Up restarts a node taken down with Down.
func (p *FaultPlan) Up(id string) {
	p.mu.Lock()
	delete(p.down, id)
	p.mu.Unlock()
}

// Crash schedules a crash/restart cycle: the node is down for message
// counts in [fromMsg, toMsg) and back up afterwards.
func (p *FaultPlan) Crash(id string, fromMsg, toMsg int) {
	p.mu.Lock()
	p.crashes[id] = append(p.crashes[id], window{fromMsg, toMsg})
	p.mu.Unlock()
}

// Partition severs the a↔b link (both directions) for message counts in
// [fromMsg, toMsg): messages on the link are silently dropped — the
// sender's radio is still charged, mirroring loss semantics.
func (p *FaultPlan) Partition(a, b string, fromMsg, toMsg int) {
	p.mu.Lock()
	p.parts[a+"→"+b] = append(p.parts[a+"→"+b], window{fromMsg, toMsg})
	p.parts[b+"→"+a] = append(p.parts[b+"→"+a], window{fromMsg, toMsg})
	p.mu.Unlock()
}

// SetBurstLink installs a Gilbert–Elliott burst-loss channel on the
// directed from→to link, replacing the link's plain LossProb model.
func (p *FaultPlan) SetBurstLink(from, to string, cfg GilbertElliott) {
	p.mu.Lock()
	p.burst[from+"→"+to] = &burstLink{cfg: cfg}
	p.mu.Unlock()
}

// SetDuplexBurstLink installs the same burst-loss channel on both
// directions of a link (independent state per direction).
func (p *FaultPlan) SetDuplexBurstLink(a, b string, cfg GilbertElliott) {
	p.SetBurstLink(a, b, cfg)
	p.SetBurstLink(b, a, cfg)
}

// SetDuplicateProb sets the probability that an async-queued message is
// delivered twice at Flush.
func (p *FaultPlan) SetDuplicateProb(q float64) {
	p.mu.Lock()
	p.dupProb = q
	p.mu.Unlock()
}

// SetReorderProb sets the probability that an async-queued message is
// deferred behind the rest of its Flush batch.
func (p *FaultPlan) SetReorderProb(q float64) {
	p.mu.Lock()
	p.reorderProb = q
	p.mu.Unlock()
}

// faultAction is the plan's verdict for one transmission attempt.
type faultAction int

const (
	faultNone         faultAction = iota // no opinion; apply the link's own loss model
	faultSenderDown                      // the sender is crashed: typed error, nothing charged
	faultReceiverDown                    // the receiver is crashed: typed error, nothing charged
	faultPartition                       // link partitioned: charged, silently dropped
	faultBurst                           // burst channel dropped it: charged, silently dropped
	faultDeliverBurst                    // burst channel delivered it: skip the plain loss draw
)

// linkFaults is a plan resolved for one directed link at the start of a
// run: both ends' down flags and crash windows, the link's partition
// windows and its burst channel. Per message what is left is the window
// checks and the burst draws.
type linkFaults struct {
	fromDown, toDown   bool
	fromCrash, toCrash []window
	parts              []window
	burst              *burstLink // nil: the link's plain loss model applies
}

func (p *FaultPlan) linkLocked(from, to string) linkFaults {
	return linkFaults{
		fromDown: p.down[from], toDown: p.down[to],
		fromCrash: p.crashes[from], toCrash: p.crashes[to],
		parts: p.parts[from+"→"+to], burst: p.burst[from+"→"+to],
	}
}

// clearAhead returns how many messages, from the network's message idx
// on, the link carries with no verdict to make: none while an endpoint
// is down or a burst channel is installed (every message draws), else
// up to the first crash or partition window that idx is in (0) or that
// lies ahead. A nil lf (no plan installed) has no limit.
func (lf *linkFaults) clearAhead(idx int) int {
	if lf == nil {
		return math.MaxInt
	}
	if lf.fromDown || lf.toDown || lf.burst != nil {
		return 0
	}
	return windowsAhead(lf.parts, idx, windowsAhead(lf.toCrash, idx, windowsAhead(lf.fromCrash, idx, math.MaxInt)))
}

// windowsAhead lowers limit to the distance from idx to the first of ws
// that has not closed by idx (0 if idx is inside one).
func windowsAhead(ws []window, idx, limit int) int {
	for _, w := range ws {
		if w.to > idx && w.from < w.to {
			limit = min(limit, max(w.from-idx, 0))
		}
	}
	return limit
}

func inWindows(ws []window, idx int) bool {
	for _, w := range ws {
		if w.contains(idx) {
			return true
		}
	}
	return false
}

// verdict decides the fate of the network's message msgIdx on the link.
// The plan's lock is held (the burst channel's state advances); rng is
// the network's seeded RNG, so burst-state walks are reproducible.
func (lf *linkFaults) verdict(msgIdx int, rng *rand.Rand) faultAction {
	switch {
	case lf.fromDown || inWindows(lf.fromCrash, msgIdx):
		return faultSenderDown
	case lf.toDown || inWindows(lf.toCrash, msgIdx):
		return faultReceiverDown
	case inWindows(lf.parts, msgIdx):
		return faultPartition
	case lf.burst == nil:
		return faultNone
	}
	bl := lf.burst
	if bl.bad {
		if rng.Float64() < bl.cfg.PBadToGood {
			bl.bad = false
		}
	} else if rng.Float64() < bl.cfg.PGoodToBad {
		bl.bad = true
	}
	loss := bl.cfg.LossGood
	if bl.bad {
		loss = bl.cfg.LossBad
	}
	if loss > 0 && rng.Float64() < loss {
		return faultBurst
	}
	return faultDeliverBurst
}

// nodeDown reports whether a node is down at the given message count
// (used by Flush for messages queued before a crash landed).
func (p *FaultPlan) nodeDown(id string, msgIdx int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down[id] || inWindows(p.crashes[id], msgIdx)
}

// dupReorder snapshots the async corruption knobs.
func (p *FaultPlan) dupReorder() (dup, reorder float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dupProb, p.reorderProb
}
