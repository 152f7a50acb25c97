// Package core is the SenseDroid middleware façade: it constructs the full
// Fig. 1 hierarchy (public cloud → local clouds → NanoCloud brokers →
// mobile nodes with probes, privacy, energy and mobility), moves simulated
// time, and exposes the collaborative compressive sensing campaign API
// that the examples and experiments drive.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/bus"
	"repro/internal/cloud"
	"repro/internal/cs"
	"repro/internal/discovery"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sensor"
)

// Campaign observability handles (no-ops until obs.Enable).
var (
	obsCampaigns    = obs.GetCounter("core.campaign.rounds")
	obsCampaignM    = obs.GetCounter("core.campaign.measurements")
	obsCampaignNMSE = obs.GetGauge("core.campaign.nmse.global")
)

// Options sizes a SenseDroid deployment.
type Options struct {
	FieldW, FieldH     int     // global grid
	ZoneRows, ZoneCols int     // hierarchy: ZoneRows×ZoneCols local clouds
	NCsPerZone         int     // NanoCloud brokers per local cloud
	NodesPerNC         int     // mobile nodes per NanoCloud
	MetersPerCell      float64 // physical scale (default 10 m)
	Seed               int64
	Timeout            time.Duration // broker↔node request timeout
}

// SenseDroid is a deployed middleware instance over a live ground-truth
// field. Mutating the truth (SetTruth) is the simulation's stand-in for
// the physical world changing.
type SenseDroid struct {
	Opts      Options
	Truth     *field.Field
	Public    *cloud.PublicCloud
	Nodes     []*node.Node
	Buses     []*bus.Bus
	Directory *discovery.Registry // who is alive where (brokers + nodes)

	envs       []*cloud.ZoneEnv
	busBytes   atomic.Int64
	nodeBus    map[string]*bus.Bus
	nodeBroker map[string]string
	brokerBus  map[string]*bus.Bus
	brokers    map[string]*broker.Broker
}

// busFor returns the NanoCloud bus and broker ID a node is attached to.
func (sd *SenseDroid) busFor(nodeID string) (*bus.Bus, string, bool) {
	b, ok := sd.nodeBus[nodeID]
	if !ok {
		return nil, "", false
	}
	return b, sd.nodeBroker[nodeID], true
}

// BusOf returns the NanoCloud bus a broker runs on — the attachment
// point for transport interceptors (the chaos harness routes each NC's
// bus through a fault-injected netsim network).
func (sd *SenseDroid) BusOf(brokerID string) (*bus.Bus, bool) {
	b, ok := sd.brokerBus[brokerID]
	return b, ok
}

// BrokerByID returns a broker by its hierarchical ID ("lc<z>/nc<n>").
func (sd *SenseDroid) BrokerByID(id string) (*broker.Broker, bool) {
	br, ok := sd.brokers[id]
	return br, ok
}

// BrokerIDs returns every broker ID, sorted.
func (sd *SenseDroid) BrokerIDs() []string {
	ids := make([]string, 0, len(sd.brokers))
	for id := range sd.brokers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// NodesOf returns the node IDs registered under a broker, sorted.
func (sd *SenseDroid) NodesOf(brokerID string) []string {
	var ids []string
	for nodeID, brID := range sd.nodeBroker {
		if brID == brokerID {
			ids = append(ids, nodeID)
		}
	}
	sort.Strings(ids)
	return ids
}

// New builds the full hierarchy. The initial ground truth is a zero field;
// call SetTruth before campaigns.
func New(opts Options) (*SenseDroid, error) {
	if opts.FieldW <= 0 || opts.FieldH <= 0 {
		return nil, errors.New("core: field dimensions must be positive")
	}
	if opts.ZoneRows <= 0 || opts.ZoneCols <= 0 {
		return nil, errors.New("core: zone grid must be positive")
	}
	if opts.FieldH%opts.ZoneRows != 0 || opts.FieldW%opts.ZoneCols != 0 {
		return nil, fmt.Errorf("core: %dx%d field not divisible into %dx%d zones",
			opts.FieldH, opts.FieldW, opts.ZoneRows, opts.ZoneCols)
	}
	if opts.NCsPerZone <= 0 {
		opts.NCsPerZone = 1
	}
	if opts.NodesPerNC < 0 {
		return nil, errors.New("core: negative node count")
	}
	if opts.MetersPerCell <= 0 {
		opts.MetersPerCell = 10
	}
	truth := field.New(opts.FieldW, opts.FieldH)
	zones, err := field.Partition(truth, opts.ZoneRows, opts.ZoneCols)
	if err != nil {
		return nil, err
	}
	sd := &SenseDroid{
		Opts: opts, Truth: truth,
		Directory:  discovery.NewRegistry(24 * time.Hour),
		nodeBus:    make(map[string]*bus.Bus),
		nodeBroker: make(map[string]string),
		brokerBus:  make(map[string]*bus.Bus),
		brokers:    make(map[string]*broker.Broker),
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	var lcs []*cloud.LocalCloud
	for _, z := range zones {
		env, err := cloud.NewZoneEnv(truth, z, opts.MetersPerCell)
		if err != nil {
			return nil, err
		}
		sd.envs = append(sd.envs, env)
		var brokers []*broker.Broker
		for nc := 0; nc < opts.NCsPerZone; nc++ {
			b := bus.New()
			b.AddHook(func(topic string, n int) { sd.busBytes.Add(int64(n)) })
			b.AddHook(bus.ObsHook())
			sd.Buses = append(sd.Buses, b)
			brID := fmt.Sprintf("lc%d/nc%d", z.ID, nc)
			br, err := broker.New(broker.Config{
				ID: brID, Seed: rng.Int63(), Timeout: opts.Timeout,
			}, b, env)
			if err != nil {
				return nil, err
			}
			if err := sd.Directory.Announce(discovery.Entry{
				Name: brID, Kind: "broker",
				Metadata: map[string]string{"zone": fmt.Sprint(z.ID)},
			}, 0); err != nil {
				return nil, err
			}
			aw, ah := env.AreaDims()
			for i := 0; i < opts.NodesPerNC; i++ {
				nodeID := fmt.Sprintf("%s/n%d", brID, i)
				mob, err := mobility.NewRandomWaypoint(
					rand.New(rand.NewSource(rng.Int63())), aw, ah, 0.8, 2.2, 2)
				if err != nil {
					return nil, err
				}
				nd, err := node.New(node.Config{
					ID:      nodeID,
					Seed:    rng.Int63(),
					Profile: sensor.RandomProfile(rng),
					Motion:  sensor.MotionWalking,
				}, env, mob)
				if err != nil {
					return nil, err
				}
				if err := nd.AttachBus(b, brID); err != nil {
					return nil, err
				}
				if err := br.Register(nodeID); err != nil {
					return nil, err
				}
				if err := sd.Directory.Announce(discovery.Entry{
					Name: nodeID, Kind: "node",
					Metadata: map[string]string{"broker": brID},
				}, 0); err != nil {
					return nil, err
				}
				sd.nodeBus[nodeID] = b
				sd.nodeBroker[nodeID] = brID
				sd.Nodes = append(sd.Nodes, nd)
			}
			sd.brokerBus[brID] = b
			sd.brokers[brID] = br
			brokers = append(brokers, br)
		}
		lc, err := cloud.NewLocalCloud(env, brokers...)
		if err != nil {
			return nil, err
		}
		lcs = append(lcs, lc)
	}
	pc, err := cloud.NewPublicCloud(opts.FieldW, opts.FieldH, lcs)
	if err != nil {
		return nil, err
	}
	sd.Public = pc
	return sd, nil
}

// SetTruth replaces the live ground-truth field (same dimensions).
func (sd *SenseDroid) SetTruth(f *field.Field) error {
	if f.W != sd.Opts.FieldW || f.H != sd.Opts.FieldH {
		return fmt.Errorf("core: truth %dx%d, want %dx%d", f.H, f.W, sd.Opts.FieldH, sd.Opts.FieldW)
	}
	copy(sd.Truth.Data, f.Data)
	return nil
}

// SetCriticality updates one zone's criticality weight for adaptive
// budgeting. Zone IDs follow field.Partition order.
func (sd *SenseDroid) SetCriticality(zoneID int, crit float64) error {
	for _, lc := range sd.Public.LCs {
		if lc.Env.Zone().ID == zoneID {
			lc.Env.SetCriticality(crit)
			return nil
		}
	}
	return fmt.Errorf("core: unknown zone %d", zoneID)
}

// Tick advances every node's mobility by dt seconds and charges idle
// energy.
func (sd *SenseDroid) Tick(dt float64) {
	for _, n := range sd.Nodes {
		n.Move(dt)
		n.Meter.ChargeIdle(dt)
	}
}

// BusBytes returns the total payload bytes that crossed all NanoCloud
// buses so far.
func (sd *SenseDroid) BusBytes() int64 { return sd.busBytes.Load() }

// TotalEnergyMJ sums all node meters.
func (sd *SenseDroid) TotalEnergyMJ() float64 {
	total := 0.0
	for _, n := range sd.Nodes {
		total += n.Meter.TotalMJ()
	}
	return total
}

// CampaignConfig parameterizes one collaborative sensing campaign.
type CampaignConfig struct {
	Kind       sensor.Kind // field quantity to map (default temperature)
	TotalM     int         // global measurement budget
	Adaptive   bool        // adaptive per-zone budgets vs uniform
	Prior      *field.Field
	EnergyFrac float64 // local-sparsity energy threshold (default 0.98)
	MinPerZone int     // adaptive floor (default 4)
	Recon      broker.ReconstructOptions
}

// CampaignResult reports a completed campaign.
type CampaignResult struct {
	Reconstructed *field.Field
	Plan          cloud.BudgetPlan
	Zones         map[int]*cloud.ZoneReport
	GlobalNMSE    float64
	ZoneNMSE      map[int]float64
	Measurements  int
	NodesUsed     int
	InfraUsed     int
	Denied        int
	BrokersFailed int // brokers lost across all zone gathers this round
	Shortfall     int // measurements the round came in under budget
}

// RunCampaign executes one full hierarchical sensing round: budget
// allocation, per-zone gather + reconstruction, global assembly, and
// accuracy accounting against the live truth.
func (sd *SenseDroid) RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Kind == "" {
		cfg.Kind = sensor.Temperature
	}
	if cfg.TotalM <= 0 {
		return nil, errors.New("core: campaign needs a positive budget")
	}
	if cfg.EnergyFrac <= 0 || cfg.EnergyFrac > 1 {
		cfg.EnergyFrac = 0.98
	}
	if cfg.MinPerZone <= 0 {
		cfg.MinPerZone = 4
	}
	var plan cloud.BudgetPlan
	if cfg.Adaptive {
		var err error
		plan, err = sd.Public.AdaptiveBudget(cfg.TotalM, cfg.Prior, cfg.EnergyFrac, cfg.MinPerZone)
		if err != nil {
			return nil, err
		}
	} else {
		plan = sd.Public.UniformBudget(cfg.TotalM)
	}
	// No caller context yet: bench/ calls RunCampaign by this signature.
	global, reports, err := sd.Public.AssembleContext(context.TODO(), cfg.Kind, plan, cfg.Recon, nil)
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{
		Reconstructed: global,
		Plan:          plan,
		Zones:         reports,
		GlobalNMSE:    cs.NMSE(sd.Truth.Data, global.Data),
		ZoneNMSE:      map[int]float64{},
	}
	for id, rep := range reports {
		sub := field.Extract(sd.Truth, rep.Zone)
		res.ZoneNMSE[id] = cs.NMSE(sub.Data, rep.Reconstruction.Field.Data)
		res.Measurements += len(rep.Reconstruction.Gather.Locs)
		res.NodesUsed += rep.Reconstruction.Gather.NodesUsed
		res.InfraUsed += rep.Reconstruction.Gather.InfraUsed
		res.Denied += rep.Reconstruction.Gather.Denied
		res.BrokersFailed += rep.Reconstruction.Gather.BrokersFailed
		res.Shortfall += rep.Reconstruction.Gather.Shortfall
	}
	obsCampaigns.Inc()
	obsCampaignM.Add(int64(res.Measurements))
	obsCampaignNMSE.Set(res.GlobalNMSE)
	return res, nil
}

// Close detaches all nodes and closes all buses.
func (sd *SenseDroid) Close() {
	for _, n := range sd.Nodes {
		n.Detach()
		sd.Directory.Withdraw(n.ID)
	}
	for _, b := range sd.Buses {
		b.Close()
	}
}

// GroupContexts runs on-device context sensing on every node and fuses the
// group view (the wellness use case).
func (sd *SenseDroid) GroupContexts(windowLen int, rateHz float64) ([]node.ContextReport, error) {
	out := make([]node.ContextReport, 0, len(sd.Nodes))
	for _, n := range sd.Nodes {
		rep, err := n.SenseContext(windowLen, rateHz, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}
