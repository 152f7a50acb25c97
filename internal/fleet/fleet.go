// Package fleet is the million-participant population backend: where
// internal/core instantiates a live node.Node (goroutines, bus
// subscriptions, per-node maps) per participant and tops out at
// hundreds, fleet keeps per-node state — position, energy, duty-cycle
// phase, noise level — in struct-of-arrays shards and advances whole
// shards at a time, moving a node only in the round it reports. That
// makes a simulated participant a few hundred bytes of flat array
// instead of a scheduled entity, which is what the paper's
// metropolitan-scale sensing claims need from the evaluation harness
// (MOSDEN-class populations, not testbed-class).
//
// Determinism contract (the fleet analogue of DESIGN.md §5): every
// shard owns a private RNG seeded from (Config.Seed, shard index), all
// random draws happen inside a shard — a round's due group draws its
// waypoint arrivals, then its measurement noise, each in node-index
// order — and every cross-shard reduction — measurement merge, energy
// totals, decode assembly — runs in ascending shard or zone order on the
// single driving goroutine. Shards share no mutable state, so stepping
// them on GOMAXPROCS workers reorders only wall-clock time, never
// arithmetic: campaign outputs are float-identical across GOMAXPROCS
// settings (pinned by TestFleetCampaignDeterministicAcrossGOMAXPROCS).
package fleet

import (
	"errors"
	"fmt"

	"math/rand"

	"repro/internal/energy"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sensor"
)

// obsNodeSteps counts node moves (StepWaypoint calls), added once per
// shard and step: the fleet's mobility work, Config.Nodes per campaign
// when no battery runs out.
var obsNodeSteps = obs.GetCounter("fleet.node_steps")

// Config sizes and seeds a population. Zero values select defaults
// (noted per field); Nodes and the field/zone geometry are required.
type Config struct {
	Nodes     int // total participants across all zones
	ShardSize int // nodes per shard (default 4096)

	FieldW, FieldH     int // global grid dimensions
	ZoneRows, ZoneCols int // zone partition (must divide the grid)

	Seed int64

	DutyPeriod int // a node reports every DutyPeriod rounds (default 8)
}

func (c *Config) applyDefaults() {
	if c.ShardSize == 0 {
		c.ShardSize = 4096
	}
	if c.DutyPeriod == 0 {
		c.DutyPeriod = 8
	}
}

// Every node is a phone with a full battery (mJ) and a noise level drawn
// uniformly from [sigmaMin, sigmaMax]; a grid cell is 10 m across.
const (
	metersPerCell      = 10
	batteryMJ          = 4e7
	sigmaMin, sigmaMax = 0.05, 0.25
)

// Shard is one struct-of-arrays block of nodes, all in the same zone.
// Everything here is owned by the shard's scheduler turn: Tick, step and
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
	sigma  []float64 // per-node measurement noise stddev

	// The duty-cycle phase index: byPhase lists the shard's nodes grouped
	// by phase, ascending within each group, and phase p's group is
	// byPhase[phaseAt[p]:phaseAt[p+1]]. A round visits only its due group.
	byPhase []int32
	phaseAt []int32

	// Mobility is lazy per phase group: clock is the shard's simulated
	// time (seconds Tick has advanced), and stepped[p] the time phase p's
	// nodes were last moved to. A group moves only when it is due, by
	// clock − stepped[p] in one step.
	clock   float64
	stepped []float64

	zone field.Zone // geometry for truth lookups

	// Round-report scratch, sized at construction for the largest phase
	// group (at most that many nodes report in one round), so the steady
	// state never allocates. report encodes this round's envelopes into
	// env[:repN*sampleSize]; the runner sends them as one netsim run and
	// flushes before the next report overwrites them.
	repN int
	env  []byte
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

	// The layout is sequential and cheap; the shards themselves — each a
	// pure function of (Seed, index) — are built in parallel.
	type spec struct{ zone, n int }
	var specs []spec
	perZone := cfg.Nodes / len(zones)
	extra := cfg.Nodes % len(zones)
	for z := range zones {
		zn := perZone
		if z < extra {
			zn++
		}
		for ; zn > 0; zn -= cfg.ShardSize {
			specs = append(specs, spec{z, min(cfg.ShardSize, zn)})
		}
	}
	p.Shards = make([]*Shard, len(specs))
	errs := make([]error, len(specs))
	par.ForEach(len(specs), func(i int) {
		sp := specs[i]
		p.Shards[i], errs[i] = newShard(i, sp.zone, sp.n, zones[sp.zone], cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err // the lowest-index error, whatever the schedule
		}
	}
	return p, nil
}

func newShard(index, zoneIdx, n int, zone field.Zone, cfg Config) (*Shard, error) {
	rng := rand.New(rand.NewSource(shardSeed(cfg.Seed, index)))
	params := mobility.WaypointParams{
		W: float64(zone.W) * metersPerCell, H: float64(zone.H) * metersPerCell,
		MinSpeed: 0.8, MaxSpeed: 2.2, Pause: 2, // walking: m/s, and a 2 s dwell
	}
	way, err := mobility.InitWaypoints(rng, params, n)
	if err != nil {
		return nil, err
	}
	bank, err := energy.NewBank(n, batteryMJ)
	if err != nil {
		return nil, err
	}
	s := &Shard{
		Index: index, Zone: zoneIdx, N: n,
		rng: rng, params: params, way: way, bank: bank,
		sigma: make([]float64, n), zone: zone,
	}
	phase := make([]int32, n)
	for i := 0; i < n; i++ {
		phase[i] = int32(rng.Intn(cfg.DutyPeriod))
		s.sigma[i] = sigmaMin + rng.Float64()*(sigmaMax-sigmaMin)
	}
	s.indexPhases(phase, cfg.DutyPeriod)
	return s, nil
}

// indexPhases builds the phase index from each node's phase by a
// counting sort, which keeps node order within a group, and sizes the
// envelope arena to the largest group.
func (s *Shard) indexPhases(phase []int32, period int) {
	s.phaseAt = make([]int32, period+1)
	for _, ph := range phase {
		s.phaseAt[ph+1]++
	}
	largest := int32(0)
	for p := 1; p <= period; p++ {
		largest = max(largest, s.phaseAt[p])
		s.phaseAt[p] += s.phaseAt[p-1]
	}
	s.stepped = make([]float64, period)
	s.byPhase = make([]int32, len(phase))
	next := append([]int32(nil), s.phaseAt[:period]...)
	for i, ph := range phase {
		s.byPhase[next[ph]] = int32(i)
		next[ph]++
	}
	s.env = make([]byte, int(largest)*sampleSize)
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

// Tick advances every shard by dt seconds in parallel. Shards are
// independent, so worker count affects only wall-clock time.
func (p *Population) Tick(dt float64) {
	p.forEachShard(func(s *Shard) { s.Tick(dt, p.idleMJ) })
}

// Tick advances one shard's clock by dt seconds and drains every node's
// idle battery. It moves no node: a phase group moves when it next
// reports (step). This is the per-tick hot loop guarded by the hotalloc
// analyzer — it must not allocate.
func (s *Shard) Tick(dt float64, idlePerSecMJ float64) {
	s.clock += dt
	s.bank.DrainAll(idlePerSecMJ * dt)
}

// dueOffset is the phase whose nodes report in round: a node is due when
// round+phase ≡ 0 (mod period).
func dueOffset(round, period int) int {
	return ((-round)%period + period) % period
}

// step moves phase ph's live nodes, in ascending node order, by the time
// since the group last moved, and marks the group moved to the shard
// clock; a group already there is left alone. Depleted nodes stay where
// they are: they never report again. The arrival draws come from the
// shard's stream, so a group's step goes before its report's noise
// draws. Allocation-free (hot path).
func (s *Shard) step(ph int) {
	dt := s.clock - s.stepped[ph]
	if dt <= 0 {
		return
	}
	s.stepped[ph] = s.clock
	n := 0
	for _, node := range s.byPhase[s.phaseAt[ph]:s.phaseAt[ph+1]] {
		i := int(node)
		if s.bank.Depleted(i) {
			continue
		}
		mobility.StepWaypoint(s.rng, s.params, s.way, i, dt)
		n++
	}
	obsNodeSteps.Add(int64(n))
}

// Report has every on-duty, non-depleted node sample the truth at its
// current cell and encode the envelope into its shard's arena, in
// parallel across shards. The merge (Runner.Run) sends the arenas in
// shard order before the next Report. Requires SetTruth.
func (p *Population) Report(round int) {
	truth := p.truth
	period := p.Cfg.DutyPeriod
	p.forEachShard(func(s *Shard) { s.report(round, period, truth, p.costMJ) })
}

// report encodes this round's measurements into the shard's envelope
// arena. A node is due when round+phase ≡ 0 (mod period), i.e. when its
// phase equals the round's due offset; report walks only that phase's
// group of the index, and only due nodes are binned to their cell. It
// first moves the group to the shard clock if Runner.Run has not already
// (step), so Tick and Report driven by hand sample the same positions.
// The RNG draws — the group's arrival draws, then one NormFloat64 per
// reporting node — each happen in node-index order on the shard's
// private stream, as a scan of every node would make them.
// Allocation-free (hot path).
func (s *Shard) report(round, period int, truth *field.Field, costMJ float64) {
	s.repN = 0
	gh := s.zone.H
	due := dueOffset(round, period)
	s.step(due)
	for _, node := range s.byPhase[s.phaseAt[due]:s.phaseAt[due+1]] {
		i := int(node)
		if s.bank.Depleted(i) {
			continue
		}
		cell := mobility.GridIndex(mobility.Point{X: s.way.X[i], Y: s.way.Y[i]}, s.params.W, s.params.H, s.zone.W, gh)
		v := truth.At(s.zone.Row0+cell%gh, s.zone.Col0+cell/gh) + s.rng.NormFloat64()*s.sigma[i]
		s.bank.Drain(i, costMJ)
		encodeSample(s.env[s.repN*sampleSize:(s.repN+1)*sampleSize], uint32(cell), uint32(i), v, s.sigma[i])
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
