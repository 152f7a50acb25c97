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
// envelope runs netsim delivers for that zone, keeping the first
// Budget distinct cells with their readings' noise σ (a re-report of a
// known cell replaces the stored value and σ, so duplicated envelopes are
// idempotent). It is driven entirely from Network.Flush/Deliver run
// handler invocations on the runner's goroutine — no locking, same
// single-writer discipline as the shards.
type ZoneCollector struct {
	Zone   field.Zone
	Budget int // max distinct cells; 0 = unbounded

	cellAt    []int32 // dense over the zone's W×H cells: 1 + index into locs/vals/sigmas, 0 = not yet heard
	locs      []int   // distinct cells in arrival order (decode locations)
	vals      []float64
	sigmas    []float64 // each kept reading's noise std-dev: the decode's stopping tolerance
	envelopes int       // handler deliveries, duplicates included
	rejected  int       // distinct cells beyond budget
	overwrote int       // re-reports of a kept cell, which replaced its reading
	malformed int
}

// newZoneCollector presizes locs, vals and sigmas to the budget, the
// most they can hold.
func newZoneCollector(zone field.Zone, budget int) *ZoneCollector {
	zc := &ZoneCollector{Zone: zone, Budget: budget, cellAt: make([]int32, zone.W*zone.H)}
	if budget > 0 {
		zc.locs = make([]int, 0, budget)
		zc.vals = make([]float64, 0, budget)
		zc.sigmas = make([]float64, 0, budget)
	}
	return zc
}

// ingest takes a delivered run of envelopes in one loop. A run whose
// messages are not sampleSize bytes each is malformed as a whole; an
// envelope naming a cell outside the zone is malformed alone.
func (zc *ZoneCollector) ingest(r netsim.Run) {
	if len(r.Payload) != r.Count*sampleSize {
		zc.malformed += r.Count
		return
	}
	for b := r.Payload; len(b) >= sampleSize; b = b[sampleSize:] {
		cell, _, value, sigma, _ := decodeSample(b[:sampleSize])
		if int(cell) >= len(zc.cellAt) {
			zc.malformed++
			continue
		}
		zc.envelopes++
		if at := zc.cellAt[cell]; at > 0 {
			zc.vals[at-1] = value
			zc.sigmas[at-1] = sigma
			zc.overwrote++
			continue
		}
		if zc.Budget > 0 && len(zc.locs) >= zc.Budget {
			zc.rejected++
			continue
		}
		zc.locs = append(zc.locs, int(cell))
		zc.vals = append(zc.vals, value)
		zc.sigmas = append(zc.sigmas, sigma)
		zc.cellAt[cell] = int32(len(zc.locs))
	}
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
		if err := net.RegisterRun(r.zoneTo[z], zc.ingest); err != nil {
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

// CampaignConfig controls one Run: Config.DutyPeriod rounds of one
// second each, so every node reports once, then an OLS decode of every
// zone in the DCT basis.
type CampaignConfig struct {
	MaxSupport int // decode support cap per zone (default distinct cells / 3)
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

	// The reading ledger of the delivered envelopes: each one is a
	// Measurement (the first of its cell), Rejected (a new cell beyond
	// its zone's budget) or Overwritten (a re-report of a kept cell,
	// whose reading replaced the one stored), so Envelopes =
	// Measurements + Rejected + Overwritten.
	Rejected, Overwritten int

	Totals    netsim.Stats
	SimTimeMS float64
	EnergyMJ  float64
	Alive     int
}

// Run drives a campaign: DutyPeriod rounds of tick → report → merge in
// shard order → flush → close, then decodes every zone against the
// collected measurements and assembles the global field. Requires
// SetTruth. The merge loop is the determinism linchpin: each shard's
// envelopes go out as one netsim run, in ascending shard index from a
// single goroutine, so the network's RNG stream (loss, dup, reorder
// draws) is a pure function of the seeds.
//
// A zone whose collector holds its budget after a round's flush closes:
// from the next round on its shards neither move nor report, so no
// envelope is sent that the collector could only reject or overwrite. A
// zone still short keeps asking, so one whose collector was down or
// whose uplink lost reports fills in a later round. Budget 0 never
// closes. Closing is one bit per zone downlink, not charged on the
// network, which models the envelope uplink.
func (r *Runner) Run(cfg CampaignConfig) (*Result, error) {
	p := r.Pop
	if p.truth == nil {
		return nil, errors.New("fleet: SetTruth before Run")
	}
	res := &Result{}
	period := p.Cfg.DutyPeriod
	for round := 0; round < period; round++ {
		p.forEachShard(func(s *Shard) {
			s.Tick(1, p.idleMJ)
			s.report(round, period, p.truth, p.costMJ)
		})
		if err := r.merge(res); err != nil {
			return nil, err
		}
		r.Net.Flush()
		for _, s := range p.Shards {
			zc := r.collectors[s.Zone]
			s.closed = zc.Budget > 0 && zc.Count() >= zc.Budget
		}
	}
	return r.finish(cfg, res)
}

// merge sends every shard's reports of this round as one netsim run, in
// ascending shard order.
func (r *Runner) merge(res *Result) error {
	for _, s := range r.Pop.Shards {
		if s.repN == 0 {
			continue
		}
		res.Reports += s.repN
		br, err := r.Net.DeliverRun(netsim.Run{
			From: r.shardFrom[s.Index], To: r.zoneTo[s.Zone], Topic: MeasureTopic,
			Count: s.repN, Payload: s.env[:s.repN*sampleSize],
		})
		if err != nil {
			return err
		}
		res.Lost += br.Lost
		res.Down += br.Down
	}
	return nil
}

// finish decodes the zones once delivery is over and fills in the rest
// of res from the collectors, the network and the population.
func (r *Runner) finish(cfg CampaignConfig, res *Result) (*Result, error) {
	p := r.Pop
	if err := r.decode(cfg, res); err != nil {
		return nil, err
	}
	for _, zc := range r.collectors {
		res.Envelopes += zc.envelopes
		res.Measurements += zc.Count()
		res.Rejected += zc.rejected
		res.Overwritten += zc.overwrote
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
// the global field sequentially in zone order. A zone's decode stops at
// the support cap or once its residual is down to the readings' noise
// (cs.NoiseTol), whichever comes first.
func (r *Runner) decode(cfg CampaignConfig, res *Result) error {
	p := r.Pop
	subs := make([]*field.Field, len(p.Zones))
	errs := make([]error, len(p.Zones))
	par.ForEach(len(p.Zones), func(z int) {
		zone := p.Zones[z]
		zc := r.collectors[z]
		if zc.Count() == 0 {
			subs[z] = field.New(zone.W, zone.H) // nothing heard from this zone: flat-zero estimate
			return
		}
		op, err := basis.CachedOperator2D(basis.KindDCT, zone.H, zone.W)
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
		dec, err := cs.CHSOp(op, zc.locs, zc.vals, cs.CHSOptions{MaxSupport: k, MaxIter: k, Tol: cs.NoiseTol(zc.sigmas), PerIter: 1})
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
		res.ZoneNMSE[z] = cs.ZoneNMSE(p.truth, zone, subs[z].Data)
	}
	res.Global = global
	res.GlobalNMSE = cs.NMSE(p.truth.Data, global.Data)
	return nil
}
