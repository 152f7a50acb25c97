// Package fleet is the million-participant population backend: where
// internal/core instantiates a live node.Node (goroutines, bus
// subscriptions, per-node maps) per participant and tops out at
// hundreds, fleet keeps per-node state — position, energy, duty-cycle
// phase, noise level, current grid cell — in struct-of-arrays shards
// and advances whole shards at a time. That makes a simulated
// participant a few hundred bytes of flat array instead of a scheduled
// entity, which is what the paper's metropolitan-scale sensing claims
// need from the evaluation harness (MOSDEN-class populations, not
// testbed-class).
//
// Determinism contract (the fleet analogue of DESIGN.md §5): every
// shard owns a private RNG seeded from (Config.Seed, shard index), all
// random draws happen inside a shard in node-index order, and every
// cross-shard reduction — measurement merge, energy totals, decode
// assembly — runs in ascending shard or zone order on the single
// driving goroutine. Shards share no mutable state, so stepping them on
// GOMAXPROCS workers reorders only wall-clock time, never arithmetic:
// campaign outputs are float-identical across GOMAXPROCS settings
// (pinned by TestFleetCampaignDeterministicAcrossGOMAXPROCS).
package fleet

import (
	"errors"
	"fmt"

	"math/rand"

	"repro/internal/energy"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/par"
	"repro/internal/sensor"
)

// Config sizes and seeds a population. Zero values select defaults
// (noted per field); Nodes and the field/zone geometry are required.
type Config struct {
	Nodes     int // total participants across all zones
	ShardSize int // nodes per shard (default 4096)

	FieldW, FieldH     int     // global grid dimensions
	ZoneRows, ZoneCols int     // zone partition (must divide the grid)
	MetersPerCell      float64 // area scale (default 10 m)

	Seed int64

	DutyPeriod         int     // a node reports every DutyPeriod rounds (default 8)
	SigmaMin, SigmaMax float64 // per-node noise level range (default 0.05..0.25)
	BatteryMJ          float64 // per-node battery (default 4e7, a phone battery)

	MinSpeed, MaxSpeed float64 // waypoint speed range, m/s (default 0.8..2.2)
	Pause              float64 // waypoint dwell, s (default 2)
}

func (c *Config) applyDefaults() {
	if c.ShardSize == 0 {
		c.ShardSize = 4096
	}
	if c.MetersPerCell == 0 {
		c.MetersPerCell = 10
	}
	if c.DutyPeriod == 0 {
		c.DutyPeriod = 8
	}
	if c.SigmaMin == 0 && c.SigmaMax == 0 {
		c.SigmaMin, c.SigmaMax = 0.05, 0.25
	}
	if c.BatteryMJ == 0 {
		c.BatteryMJ = 4e7
	}
	if c.MinSpeed == 0 && c.MaxSpeed == 0 {
		c.MinSpeed, c.MaxSpeed = 0.8, 2.2
	}
	if c.Pause == 0 {
		c.Pause = 2
	}
}

// Shard is one struct-of-arrays block of nodes, all in the same zone.
// Everything here is owned by the shard's scheduler turn: Tick and
// report mutate it from exactly one goroutine at a time, and the merge
// phase reads it only after the parallel phase has joined.
type Shard struct {
	Index int // global shard index: the deterministic merge order
	Zone  int // owning zone (index into Population.Zones)
	N     int

	rng    *rand.Rand
	params mobility.WaypointParams
	way    *mobility.WaypointState
	bank   *energy.Bank
	phase  []uint16  // duty-cycle offset per node
	sigma  []float64 // per-node measurement noise stddev
	cells  []int32   // zone-local grid cell per node, refreshed by Tick

	zone field.Zone // geometry for truth lookups

	// Round-report scratch, sized for the worst case (every node
	// reports) at construction so the steady state never allocates.
	// report fills [0:repN); the merge phase consumes it before the
	// next Report overwrites it.
	repN     int
	repCell  []int32
	repValue []float64
	repSigma []float64
	repNode  []int32
}

// Population is a sharded fleet over a zoned field.
type Population struct {
	Cfg    Config
	Zones  []field.Zone
	Shards []*Shard

	truth  *field.Field // ground truth sampled by reports (read-only during rounds)
	idleMJ float64      // per-second baseline drain
	costMJ float64      // per-report drain: one sample + one envelope tx
}

// shardSeed derives a shard's RNG seed from the campaign seed by a
// splitmix64 finalizer — decorrelated streams per shard, reproducible
// from (Seed, Index) alone.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + uint64(shard+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// NewPopulation builds the sharded fleet: nodes are spread over zones
// as evenly as possible (earlier zones take the remainder), each zone's
// nodes are cut into ShardSize blocks, and each shard draws its initial
// state — positions, waypoints, duty phases, noise levels — from its
// own seeded RNG in node-index order.
func NewPopulation(cfg Config) (*Population, error) {
	cfg.applyDefaults()
	if cfg.Nodes <= 0 {
		return nil, errors.New("fleet: need a positive node count")
	}
	if cfg.FieldW <= 0 || cfg.FieldH <= 0 {
		return nil, errors.New("fleet: need positive field dimensions")
	}
	zones, err := field.Partition(field.New(cfg.FieldW, cfg.FieldH), cfg.ZoneRows, cfg.ZoneCols)
	if err != nil {
		return nil, err
	}
	model := energy.DefaultModel()
	sampleMJ, ok := model.SampleCostMJ(sensor.Temperature)
	if !ok {
		return nil, errors.New("fleet: energy model lacks a temperature sample cost")
	}
	p := &Population{
		Cfg:    cfg,
		Zones:  zones,
		idleMJ: model.IdlePerSecMJ,
		costMJ: sampleMJ + model.TxCostMJ(energy.RadioWiFi, sampleSize),
	}

	perZone := cfg.Nodes / len(zones)
	extra := cfg.Nodes % len(zones)
	shardIdx := 0
	for z, zone := range zones {
		zn := perZone
		if z < extra {
			zn++
		}
		for zn > 0 {
			n := cfg.ShardSize
			if n > zn {
				n = zn
			}
			s, err := newShard(shardIdx, z, n, zone, cfg)
			if err != nil {
				return nil, err
			}
			p.Shards = append(p.Shards, s)
			shardIdx++
			zn -= n
		}
	}
	return p, nil
}

func newShard(index, zoneIdx, n int, zone field.Zone, cfg Config) (*Shard, error) {
	rng := rand.New(rand.NewSource(shardSeed(cfg.Seed, index)))
	params := mobility.WaypointParams{
		W: float64(zone.W) * cfg.MetersPerCell, H: float64(zone.H) * cfg.MetersPerCell,
		MinSpeed: cfg.MinSpeed, MaxSpeed: cfg.MaxSpeed, Pause: cfg.Pause,
	}
	way, err := mobility.InitWaypoints(rng, params, n)
	if err != nil {
		return nil, err
	}
	bank, err := energy.NewBank(n, cfg.BatteryMJ)
	if err != nil {
		return nil, err
	}
	s := &Shard{
		Index: index, Zone: zoneIdx, N: n,
		rng: rng, params: params, way: way, bank: bank,
		phase: make([]uint16, n), sigma: make([]float64, n),
		cells: make([]int32, n), zone: zone,
		repCell: make([]int32, n), repValue: make([]float64, n),
		repSigma: make([]float64, n), repNode: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		s.phase[i] = uint16(rng.Intn(cfg.DutyPeriod))
		s.sigma[i] = cfg.SigmaMin + rng.Float64()*(cfg.SigmaMax-cfg.SigmaMin)
	}
	mobility.GridIndexes(s.cells, way.X, way.Y, params.W, params.H, zone.W, zone.H)
	return s, nil
}

// SetTruth installs the ground-truth field reports sample from. The
// field is read concurrently by shards during Tick/Report — callers
// must not mutate it while a round is in flight.
func (p *Population) SetTruth(f *field.Field) error {
	if f.W != p.Cfg.FieldW || f.H != p.Cfg.FieldH {
		return fmt.Errorf("fleet: truth field %dx%d does not match config %dx%d",
			f.H, f.W, p.Cfg.FieldH, p.Cfg.FieldW)
	}
	p.truth = f
	return nil
}

// Tick advances every shard by dt seconds — movement, idle drain, and
// cell re-binning — in parallel. Shards are independent, so worker
// count affects only wall-clock time.
func (p *Population) Tick(dt float64) {
	p.forEachShard(func(s *Shard) { s.Tick(dt, p.idleMJ) })
}

// Tick advances one shard: waypoint movement, idle battery drain, and
// the position→cell binning the next report reads. This is the per-tick
// hot loop guarded by the hotalloc analyzer — it must not allocate.
func (s *Shard) Tick(dt float64, idlePerSecMJ float64) {
	mobility.StepWaypoints(s.rng, s.params, s.way, dt)
	s.bank.DrainAll(idlePerSecMJ * dt)
	mobility.GridIndexes(s.cells, s.way.X, s.way.Y, s.params.W, s.params.H, s.zone.W, s.zone.H)
}

// Report has every on-duty, non-depleted node sample the truth at its
// current cell into the shard's report scratch, in parallel across
// shards. The merge (Runner.Run) consumes the scratch in shard order
// before the next Report. Requires SetTruth.
func (p *Population) Report(round int) {
	truth := p.truth
	period := p.Cfg.DutyPeriod
	p.forEachShard(func(s *Shard) { s.report(round, period, truth, p.costMJ) })
}

// report fills the shard's scratch with this round's measurements. All
// RNG draws (one NormFloat64 per reporting node) happen in node-index
// order on the shard's private stream. Allocation-free (hot path).
func (s *Shard) report(round, period int, truth *field.Field, costMJ float64) {
	s.repN = 0
	gh := s.zone.H
	for i := 0; i < s.N; i++ {
		if (round+int(s.phase[i]))%period != 0 || s.bank.Depleted(i) {
			continue
		}
		cell := int(s.cells[i])
		v := truth.At(s.zone.Row0+cell%gh, s.zone.Col0+cell/gh) + s.rng.NormFloat64()*s.sigma[i]
		s.bank.Drain(i, costMJ)
		s.repCell[s.repN] = s.cells[i]
		s.repValue[s.repN] = v
		s.repSigma[s.repN] = s.sigma[i]
		s.repNode[s.repN] = int32(i)
		s.repN++
	}
}

// EnergyUsedMJ sums battery spending across the fleet in shard order.
func (p *Population) EnergyUsedMJ() float64 {
	t := 0.0
	for _, s := range p.Shards {
		t += s.bank.TotalUsedMJ()
	}
	return t
}

// Alive counts nodes with battery remaining.
func (p *Population) Alive() int {
	n := 0
	for _, s := range p.Shards {
		n += s.bank.Alive()
	}
	return n
}

// forEachShard applies fn to every shard on a GOMAXPROCS-bounded worker
// pool. fn must touch only its shard (the package's ownership
// discipline); the pool joins before returning, so callers see a
// completed parallel phase.
func (p *Population) forEachShard(fn func(*Shard)) {
	par.ForEach(len(p.Shards), func(i int) { fn(p.Shards[i]) })
}
