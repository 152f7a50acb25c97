// Package chaos runs the full Fig. 1 hierarchy under scripted fault
// plans: it bridges every NanoCloud bus through its own seeded
// netsim.Network (one per broker, so zone-parallel assembly never shares
// an RNG stream) and exposes the per-broker FaultPlans for tests and
// experiments to script partitions, crashes, burst loss, and
// duplication against. It lives beside testutil but in its own package:
// broker's internal tests import testutil, so testutil itself must not
// import core.
package chaos

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/netsim"
)

// Harness is a deployed SenseDroid hierarchy whose bus traffic flows
// through fault-injectable simulated networks.
type Harness struct {
	SD *core.SenseDroid

	// nets and plans are keyed by broker ID. Both maps are built once in
	// New and only read afterwards (the interceptors and accessors), so
	// they need no lock; the Network and FaultPlan values do their own
	// locking.
	nets  map[string]*netsim.Network
	plans map[string]*netsim.FaultPlan
}

// New builds the hierarchy and splices one netsim.Network per NanoCloud
// between each bus and its subscribers. Network seeds derive from
// opts.Seed and the broker ID, so a fixed deployment seed fixes every
// fault/loss draw too.
func New(opts core.Options) (*Harness, error) {
	sd, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	h := &Harness{
		SD:    sd,
		nets:  make(map[string]*netsim.Network),
		plans: make(map[string]*netsim.FaultPlan),
	}
	for _, brID := range sd.BrokerIDs() {
		b, ok := sd.BusOf(brID)
		if !ok {
			sd.Close()
			return nil, fmt.Errorf("chaos: no bus for broker %q", brID)
		}
		net := netsim.New(netSeed(opts.Seed, brID))
		if err := net.Register(brID, nil); err != nil {
			sd.Close()
			return nil, err
		}
		for _, nodeID := range sd.NodesOf(brID) {
			if err := net.Register(nodeID, nil); err != nil {
				sd.Close()
				return nil, err
			}
		}
		plan := netsim.NewFaultPlan()
		net.SetFaultPlan(plan)
		h.nets[brID] = net
		h.plans[brID] = plan
		b.SetInterceptor(interceptFor(net, brID))
	}
	return h, nil
}

// netSeed derives a per-broker network seed from the deployment seed.
func netSeed(seed int64, brokerID string) int64 {
	f := fnv.New64a()
	//lint:ignore errcheck fnv.Write never fails
	_, _ = f.Write([]byte(brokerID))
	return seed ^ int64(f.Sum64())
}

// interceptFor routes one NanoCloud bus through its simulated network.
// Topics on an NC bus have two request/reply shapes (node IDs themselves
// contain slashes, e.g. "lc0/nc0/n3"):
//
//	<brID>/node/<nodeID>/<op>      broker → node command
//	<brID>/inbox/<s>/<nodeID>/<k>  node → broker reply (bus.InboxTopic)
//
// Anything else is control traffic and passes through unfaulted.
func interceptFor(net *netsim.Network, brID string) bus.Interceptor {
	commands, replies := brID+"/node/", brID+"/inbox/"
	return func(m bus.Message) (bool, error) {
		from, to := brID, brID
		if rest, ok := strings.CutPrefix(m.Topic, commands); ok {
			to = middle(rest, 0)
		} else if rest, ok := strings.CutPrefix(m.Topic, replies); ok {
			from = middle(rest, 1)
		}
		if from == "" || to == "" || from == to {
			return true, nil
		}
		return net.Deliver(netsim.Message{From: from, To: to, Topic: m.Topic, Payload: m.Payload})
	}
}

// middle returns path without its last segment and its first lead
// segments, or "" when nothing is left between them.
func middle(path string, lead int) string {
	for ; lead > 0; lead-- {
		var ok bool
		if _, path, ok = strings.Cut(path, "/"); !ok {
			return ""
		}
	}
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return ""
}

// Plan returns the fault plan governing a broker's network (nil for an
// unknown broker ID).
func (h *Harness) Plan(brokerID string) *netsim.FaultPlan { return h.plans[brokerID] }

// Network returns a broker's simulated network (nil for an unknown
// broker ID).
func (h *Harness) Network(brokerID string) *netsim.Network { return h.nets[brokerID] }

// Totals aggregates traffic stats across every broker's network.
func (h *Harness) Totals() netsim.Stats {
	var t netsim.Stats
	for _, brID := range h.SD.BrokerIDs() {
		s := h.nets[brID].Totals()
		t.TxMessages += s.TxMessages
		t.RxMessages += s.RxMessages
		t.TxBytes += s.TxBytes
		t.RxBytes += s.RxBytes
		t.Dropped += s.Dropped
	}
	return t
}

// PartitionBroker severs every node↔broker link on one broker's network
// for the given message-count window — the "NanoCloud cut off from its
// fleet" scenario.
func (h *Harness) PartitionBroker(brokerID string, fromMsg, toMsg int) {
	plan := h.plans[brokerID]
	if plan == nil {
		return
	}
	for _, nodeID := range h.SD.NodesOf(brokerID) {
		plan.Partition(brokerID, nodeID, fromMsg, toMsg)
	}
}

// BurstBroker installs a Gilbert–Elliott burst-loss channel on every
// node↔broker link of one broker's network.
func (h *Harness) BurstBroker(brokerID string, cfg netsim.GilbertElliott) {
	plan := h.plans[brokerID]
	if plan == nil {
		return
	}
	for _, nodeID := range h.SD.NodesOf(brokerID) {
		plan.SetDuplexBurstLink(brokerID, nodeID, cfg)
	}
}

// Close tears down the deployment (detaches nodes, closes buses).
func (h *Harness) Close() { h.SD.Close() }
