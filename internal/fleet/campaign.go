package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/netsim"
	"repro/internal/par"
)

// sampleSize is the wire size of one measurement envelope payload:
// uint32 zone-local cell, uint32 node index within shard, float64
// value, float64 sigma — all little-endian.
const sampleSize = 24

// MeasureTopic is the envelope topic on the simulated network.
const MeasureTopic = "fleet/measure"

func encodeSample(dst []byte, cell, node uint32, value, sigma float64) {
	binary.LittleEndian.PutUint32(dst[0:4], cell)
	binary.LittleEndian.PutUint32(dst[4:8], node)
	binary.LittleEndian.PutUint64(dst[8:16], math.Float64bits(value))
	binary.LittleEndian.PutUint64(dst[16:24], math.Float64bits(sigma))
}

func decodeSample(b []byte) (cell, node uint32, value, sigma float64, ok bool) {
	if len(b) != sampleSize {
		return 0, 0, 0, 0, false
	}
	cell = binary.LittleEndian.Uint32(b[0:4])
	node = binary.LittleEndian.Uint32(b[4:8])
	value = math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
	sigma = math.Float64frombits(binary.LittleEndian.Uint64(b[16:24]))
	return cell, node, value, sigma, true
}

// ShardEndpoint is shard i's sender id on the simulated network — the
// per-shard accounting granularity: the network's Stats for
// ShardEndpoint(i) are shard i's radio ledger.
func ShardEndpoint(i int) string { return fmt.Sprintf("fleet/s%d", i) }

// ZoneEndpoint is zone z's collector id, matching the broker naming
// ("lc<z>") so fault plans written for the node backend — crash
// windows, partitions against a zone's LocalCloud — apply unchanged.
func ZoneEndpoint(z int) string { return fmt.Sprintf("lc%d", z) }

// ZoneCollector is a zone's ingest endpoint: it accumulates the
// envelope stream netsim delivers for that zone, keeping the first
// Budget distinct cells (a re-report of a known cell updates the stored
// value, so duplicated envelopes are idempotent). It is driven entirely
// from Network.Flush/Deliver handler invocations on the runner's
// goroutine — no locking, same single-writer discipline as the shards.
type ZoneCollector struct {
	Zone   field.Zone
	Budget int // max distinct cells; 0 = unbounded

	cellAt    []int32 // dense over the zone's W×H cells: 1 + index into locs/vals/sigmas, 0 = not yet heard
	locs      []int   // distinct cells in arrival order (decode locations)
	vals      []float64
	sigmas    []float64
	envelopes int // handler deliveries, duplicates included
	rejected  int // distinct cells beyond budget
	malformed int
}

func newZoneCollector(zone field.Zone, budget int) *ZoneCollector {
	return &ZoneCollector{Zone: zone, Budget: budget, cellAt: make([]int32, zone.W*zone.H)}
}

func (zc *ZoneCollector) handle(m netsim.Message) {
	cell, _, value, sigma, ok := decodeSample(m.Payload)
	if !ok || int(cell) >= len(zc.cellAt) {
		zc.malformed++
		return
	}
	zc.envelopes++
	if at := zc.cellAt[cell]; at > 0 {
		zc.vals[at-1] = value
		zc.sigmas[at-1] = sigma
		return
	}
	if zc.Budget > 0 && len(zc.locs) >= zc.Budget {
		zc.rejected++
		return
	}
	zc.locs = append(zc.locs, int(cell))
	zc.vals = append(zc.vals, value)
	zc.sigmas = append(zc.sigmas, sigma)
	zc.cellAt[cell] = int32(len(zc.locs))
}

// Count returns the number of distinct cells collected.
func (zc *ZoneCollector) Count() int { return len(zc.locs) }

// Runner wires a Population to a netsim.Network and drives campaigns:
// tick, report, merge (one run per shard, in shard order), flush, and
// finally per-zone decode. Plan is live during Run — fault scenarios
// (crash windows, partitions, dup/reorder) apply to the envelope stream
// exactly as they would to node-backend traffic.
type Runner struct {
	Pop  *Population
	Net  *netsim.Network
	Plan *netsim.FaultPlan

	collectors []*ZoneCollector
	shardFrom  []string // precomputed sender ids, indexed by shard
	zoneTo     []string // precomputed collector ids, indexed by zone
}

// NewRunner registers the population's shards and zone collectors on a
// fresh async network seeded with netSeed. budgetPerZone caps each
// zone's distinct measured cells (0 = unbounded).
func NewRunner(p *Population, netSeed int64, budgetPerZone int) (*Runner, error) {
	net := netsim.New(netSeed)
	net.SetAsync(true)
	net.SetDefaultLink(netsim.Link{LatencyMS: 1})
	plan := netsim.NewFaultPlan()
	net.SetFaultPlan(plan)

	r := &Runner{Pop: p, Net: net, Plan: plan}
	for z, zone := range p.Zones {
		zc := newZoneCollector(zone, budgetPerZone)
		r.collectors = append(r.collectors, zc)
		r.zoneTo = append(r.zoneTo, ZoneEndpoint(z))
		if err := net.Register(r.zoneTo[z], zc.handle); err != nil {
			return nil, err
		}
	}
	for _, s := range p.Shards {
		r.shardFrom = append(r.shardFrom, ShardEndpoint(s.Index))
		if err := net.Register(r.shardFrom[s.Index], nil); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// CampaignConfig controls one Run.
type CampaignConfig struct {
	Rounds     int        // duty rounds (default Config.DutyPeriod: every node reports once)
	Dt         float64    // seconds per round (default 1)
	Basis      basis.Kind // decode basis (default DCT)
	MaxSupport int        // decode support cap per zone (default distinct cells / 3)
	UseGLS     bool       // weight the decode by reported sigmas
}

// Result is one fleet campaign's deterministic output.
type Result struct {
	Global     *field.Field // assembled reconstruction
	GlobalNMSE float64
	ZoneNMSE   []float64

	Reports      int // envelopes produced by on-duty nodes (enqueue attempts)
	Envelopes    int // envelopes delivered to collectors (duplicates included)
	Measurements int // distinct cells decoded across zones
	Lost, Down   int // run enqueue outcomes (in-flight loss / down endpoints)
	Malformed    int

	Totals    netsim.Stats
	SimTimeMS float64
	EnergyMJ  float64
	Alive     int
}

// Run drives a campaign: Rounds times (tick → report → merge in shard
// order → flush), then decodes every zone against the collected
// measurements and assembles the global field. Requires SetTruth. The
// merge loop is the determinism linchpin: each shard's envelopes go out
// as one netsim run, in ascending shard index on the single driving
// goroutine, so the network's RNG stream (loss, dup, reorder draws) is a
// pure function of the seeds. The network reads a shard's arena until
// the round's Flush, which comes before the next Report rewrites it.
func (r *Runner) Run(cfg CampaignConfig) (*Result, error) {
	p := r.Pop
	if p.truth == nil {
		return nil, errors.New("fleet: SetTruth before Run")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = p.Cfg.DutyPeriod
	}
	if cfg.Dt == 0 {
		cfg.Dt = 1
	}
	if cfg.Basis == "" {
		cfg.Basis = basis.KindDCT
	}

	res := &Result{}
	for round := 0; round < cfg.Rounds; round++ {
		p.Tick(cfg.Dt)
		p.Report(round)
		for _, s := range p.Shards {
			if s.repN == 0 {
				continue
			}
			res.Reports += s.repN
			br, err := r.Net.DeliverRun(netsim.Run{
				From: r.shardFrom[s.Index], To: r.zoneTo[s.Zone], Topic: MeasureTopic,
				Count: s.repN, Payload: s.env[:s.repN*sampleSize],
			})
			if err != nil {
				return nil, err
			}
			res.Lost += br.Lost
			res.Down += br.Down
		}
		r.Net.Flush()
	}

	if err := r.decode(cfg, res); err != nil {
		return nil, err
	}
	for _, zc := range r.collectors {
		res.Envelopes += zc.envelopes
		res.Measurements += zc.Count()
		res.Malformed += zc.malformed
	}
	res.Totals = r.Net.Totals()
	res.SimTimeMS = r.Net.SimTimeMS()
	res.EnergyMJ = p.EnergyUsedMJ()
	res.Alive = p.Alive()
	return res, nil
}

// decode reconstructs every zone from its collector via the matrix-free
// CHS decoder, in parallel over zones (each zone's decode is a pure
// function of its collected measurements), then assembles and scores
// the global field sequentially in zone order.
func (r *Runner) decode(cfg CampaignConfig, res *Result) error {
	p := r.Pop
	subs := make([]*field.Field, len(p.Zones))
	errs := make([]error, len(p.Zones))
	par.ForEach(len(p.Zones), func(z int) {
		zone := p.Zones[z]
		zc := r.collectors[z]
		zf := field.New(zone.W, zone.H)
		if zc.Count() == 0 {
			subs[z] = zf // nothing heard from this zone: flat-zero estimate
			return
		}
		op, err := zf.Operator2D(cfg.Basis)
		if err != nil {
			errs[z] = err
			return
		}
		k := cfg.MaxSupport
		if k <= 0 {
			k = zc.Count() / 3
		}
		if k < 1 {
			k = 1
		}
		opts := cs.CHSOptions{MaxSupport: k, MaxIter: k, Tol: 1e-8, PerIter: 1}
		if cfg.UseGLS {
			opts.Sigmas = zc.sigmas
		}
		dec, err := cs.CHSOp(op, zc.locs, zc.vals, opts)
		if err != nil {
			errs[z] = err
			return
		}
		sub, err := field.FromVector(zone.W, zone.H, dec.Xhat)
		if err != nil {
			errs[z] = err
			return
		}
		subs[z] = sub
	})
	for z, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: zone %d decode: %w", z, err)
		}
	}

	global := field.New(p.Cfg.FieldW, p.Cfg.FieldH)
	res.ZoneNMSE = make([]float64, len(p.Zones))
	for z, zone := range p.Zones {
		if err := field.Insert(global, zone, subs[z]); err != nil {
			return err
		}
		truthSub := field.Extract(p.truth, zone)
		res.ZoneNMSE[z] = cs.NMSE(truthSub.Data, subs[z].Data)
	}
	res.Global = global
	res.GlobalNMSE = cs.NMSE(p.truth.Data, global.Data)
	return nil
}
