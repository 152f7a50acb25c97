package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fleet"
)

// cfleetTruth scales the two-plume evaluation field to the configured
// grid, so every scenario (and both backends) reconstructs the same
// shape and the NMSE column is comparable across rows.
func cfleetTruth(w, h int) *field.Field {
	return field.GenPlumes(w, h, 10, []field.Plume{
		{Row: float64(h) / 4, Col: float64(w) / 4, Sigma: float64(h) / 8, Amplitude: 30},
		{Row: 3 * float64(h) / 4, Col: 2 * float64(w) / 3, Sigma: float64(h) / 7, Amplitude: 22},
	})
}

// CFleetConfig sizes the fleet-backend campaign sweep.
type CFleetConfig struct {
	Nodes     int // fleet population per scenario
	ShardSize int
	FieldW    int
	FieldH    int
	ZoneRows  int
	ZoneCols  int
	Budget    int   // distinct measured cells per zone
	Seed      int64 // population seed; Seed+1 seeds the network

	// Comparison row: the same truth reconstructed by the node.Node
	// backend (live goroutine nodes, buses, brokers).
	NodeBackendNodes int // nodes per NanoCloud
	TotalM           int // node-backend measurement budget
}

// DefaultCFleet returns the presentation-scale configuration: a 65k-node
// fleet (the bench suite pushes the same runner to 10^6).
func DefaultCFleet() CFleetConfig {
	return CFleetConfig{
		Nodes: 65536, ShardSize: 4096,
		FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2,
		Budget: 96, Seed: 11,
		NodeBackendNodes: 8, TotalM: 128,
	}
}

// cfleetRun builds a fresh population+runner from cfg (identical seeds
// every time — scenarios differ only in the fault plan mutate applies)
// and runs one campaign.
func cfleetRun(cfg CFleetConfig, truth *field.Field, mutate func(*fleet.Runner)) (*fleet.Result, error) {
	p, err := fleet.NewPopulation(fleet.Config{
		Nodes: cfg.Nodes, ShardSize: cfg.ShardSize,
		FieldW: cfg.FieldW, FieldH: cfg.FieldH,
		ZoneRows: cfg.ZoneRows, ZoneCols: cfg.ZoneCols,
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := p.SetTruth(truth); err != nil {
		return nil, err
	}
	r, err := fleet.NewRunner(p, cfg.Seed+1, cfg.Budget)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(r)
	}
	return r.Run(fleet.CampaignConfig{})
}

// CFleet compares the struct-of-arrays fleet backend against the
// node.Node backend on one truth, then sweeps the fleet through the
// fault scenarios the node backend is routinely subjected to — burst
// loss on shard uplinks, a zone collector crash window, and
// duplication+reordering. Every scenario reuses the netsim fault
// substrate (fleet.Runner.Plan is a live netsim.FaultPlan), so fault
// plans written for the node backend apply to fleet traffic unchanged.
func CFleet(cfg CFleetConfig) (*Table, error) {
	t := &Table{
		ID:     "CFL",
		Title:  "Fleet backend: node-backend parity and fault scenarios at scale",
		Header: []string{"scenario", "nodes", "NMSE", "meas", "deliv", "lost", "down", "energy-MJ"},
	}
	truth := cfleetTruth(cfg.FieldW, cfg.FieldH)

	// Node backend row: the full middleware hierarchy on the same truth.
	sd, err := core.New(core.Options{
		FieldW: cfg.FieldW, FieldH: cfg.FieldH,
		ZoneRows: cfg.ZoneRows, ZoneCols: cfg.ZoneCols,
		NCsPerZone: 1, NodesPerNC: cfg.NodeBackendNodes, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := sd.SetTruth(truth); err != nil {
		sd.Close()
		return nil, err
	}
	nodeRes, err := sd.RunCampaign(core.CampaignConfig{TotalM: cfg.TotalM})
	sd.Close()
	if err != nil {
		return nil, fmt.Errorf("experiments: cfleet node backend: %w", err)
	}
	nodeCount := cfg.ZoneRows * cfg.ZoneCols * cfg.NodeBackendNodes
	recordNMSE("cfleet", "node-backend", nodeRes.GlobalNMSE)
	t.AddRow("node-backend", d(nodeCount), f(nodeRes.GlobalNMSE), d(nodeRes.Measurements), "-", "-", "-", "-")

	scenarios := []struct {
		name   string
		mutate func(*fleet.Runner)
	}{
		{"fleet-clean", nil},
		{"fleet-burst", func(r *fleet.Runner) {
			// Burst loss on every shard's uplink to its zone collector.
			ge := geForAvgLoss(0.25)
			for _, s := range r.Pop.Shards {
				r.Plan.SetBurstLink(fleet.ShardEndpoint(s.Index), fleet.ZoneEndpoint(s.Zone), ge)
			}
		}},
		{"fleet-zone-crash", func(r *fleet.Runner) {
			// One zone's collector crashes during round 0, which sends
			// about Nodes/8 messages, and restarts mid-campaign: the
			// other zones close after round 0, so each later round sends
			// only the crashed zone's due group, about Nodes/32 messages,
			// and the zone keeps asking until it fills.
			r.Plan.Crash(fleet.ZoneEndpoint(0), cfg.Nodes/16, 3*cfg.Nodes/16)
		}},
		{"fleet-dup-reorder", func(r *fleet.Runner) {
			r.Plan.SetDuplicateProb(0.2)
			r.Plan.SetReorderProb(0.25)
		}},
	}
	var cleanNMSE float64
	for i, sc := range scenarios {
		res, err := cfleetRun(cfg, truth, sc.mutate)
		if err != nil {
			return nil, fmt.Errorf("experiments: cfleet %q: %w", sc.name, err)
		}
		if i == 0 {
			cleanNMSE = res.GlobalNMSE
		}
		recordNMSE("cfleet", sc.name, res.GlobalNMSE)
		t.AddRow(sc.name, d(cfg.Nodes), f(res.GlobalNMSE), d(res.Measurements),
			d(res.Envelopes), d(res.Totals.Dropped), d(res.Down), f(res.EnergyMJ))
	}
	t.AddNote("fleet backend simulates %d nodes per scenario as struct-of-arrays shards; node backend runs %d live goroutine nodes on the same truth", cfg.Nodes, nodeCount)
	t.AddNote("fault-free fleet NMSE %.4f vs node backend %.4f; fault scenarios reuse the netsim fault plan unchanged", cleanNMSE, nodeRes.GlobalNMSE)
	return t, nil
}
