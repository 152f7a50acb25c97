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
	FieldW, FieldH     int // global grid
	ZoneRows, ZoneCols int // hierarchy: ZoneRows×ZoneCols local clouds
	NCsPerZone         int // NanoCloud brokers per local cloud
	NodesPerNC         int // mobile nodes per NanoCloud
	Seed               int64
	Timeout            time.Duration // broker↔node request timeout
}

// metersPerCell is the physical scale of a grid cell.
const metersPerCell = 10

// SenseDroid is a deployed middleware instance over a live ground-truth
// field. Mutating the truth (SetTruth) is the simulation's stand-in for
// the physical world changing.
type SenseDroid struct {
	Opts   Options
	Truth  *field.Field
	Public *cloud.PublicCloud
	Nodes  []*node.Node
	Buses  []*bus.Bus

	busBytes  atomic.Int64
	brokerBus map[string]*bus.Bus
	brokers   map[string]*broker.Broker
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
	if br, ok := sd.brokers[brokerID]; ok {
		return br.Nodes()
	}
	return nil
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
	truth := field.New(opts.FieldW, opts.FieldH)
	zones, err := field.Partition(truth, opts.ZoneRows, opts.ZoneCols)
	if err != nil {
		return nil, err
	}
	sd := &SenseDroid{
		Opts: opts, Truth: truth,
		brokerBus: make(map[string]*bus.Bus),
		brokers:   make(map[string]*broker.Broker),
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	var lcs []*cloud.LocalCloud
	for _, z := range zones {
		env, err := cloud.NewZoneEnv(truth, z, metersPerCell)
		if err != nil {
			return nil, err
		}
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

// CampaignConfig parameterizes one collaborative sensing campaign, which
// maps temperature with the broker's default reconstruction. An adaptive
// plan keeps 98 % of the prior's local energy and gives every zone at
// least 4 measurements.
type CampaignConfig struct {
	TotalM   int  // global measurement budget
	Adaptive bool // adaptive per-zone budgets vs uniform
	Prior    *field.Field
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
	if cfg.TotalM <= 0 {
		return nil, errors.New("core: campaign needs a positive budget")
	}
	var plan cloud.BudgetPlan
	if cfg.Adaptive {
		var err error
		plan, err = sd.Public.AdaptiveBudget(cfg.TotalM, cfg.Prior, 0.98, 4)
		if err != nil {
			return nil, err
		}
	} else {
		plan = sd.Public.UniformBudget(cfg.TotalM)
	}
	// No caller context yet: bench/ calls RunCampaign by this signature.
	global, reports, err := sd.Public.AssembleContext(context.TODO(), sensor.Temperature, plan, broker.ReconstructOptions{}, nil)
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
		res.ZoneNMSE[id] = cs.ZoneNMSE(sd.Truth, rep.Zone, rep.Reconstruction.Field.Data)
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
	}
	for _, b := range sd.Buses {
		b.Close()
	}
}
