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
// per-shard accounting granularity: netsim.NodeStats(ShardEndpoint(i))
// is shard i's radio ledger.
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

	cellAt    map[int32]int // cell → index into locs/vals/sigmas
	locs      []int         // distinct cells in arrival order (decode locations)
	vals      []float64
	sigmas    []float64
	envelopes int // handler deliveries, duplicates included
	rejected  int // distinct cells beyond budget
	malformed int
}

func newZoneCollector(zone field.Zone, budget int) *ZoneCollector {
	return &ZoneCollector{Zone: zone, Budget: budget, cellAt: make(map[int32]int)}
}

func (zc *ZoneCollector) handle(m netsim.Message) {
	cell, _, value, sigma, ok := decodeSample(m.Payload)
	if !ok || int(cell) >= zc.Zone.W*zc.Zone.H {
		zc.malformed++
		return
	}
	zc.envelopes++
	if at, seen := zc.cellAt[int32(cell)]; seen {
		zc.vals[at] = value
		zc.sigmas[at] = sigma
		return
	}
	if zc.Budget > 0 && len(zc.locs) >= zc.Budget {
		zc.rejected++
		return
	}
	zc.cellAt[int32(cell)] = len(zc.locs)
	zc.locs = append(zc.locs, int(cell))
	zc.vals = append(zc.vals, value)
	zc.sigmas = append(zc.sigmas, sigma)
}

// Count returns the number of distinct cells collected.
func (zc *ZoneCollector) Count() int { return len(zc.locs) }

// Runner wires a Population to a netsim.Network and drives campaigns:
// tick, report, merge (batched enqueue in shard order), flush, and
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
	arena      [][]byte // per-shard payload arenas, reused every round
	batch      []netsim.Message
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
	maxN := 0
	for _, s := range p.Shards {
		r.shardFrom = append(r.shardFrom, ShardEndpoint(s.Index))
		if err := net.Register(r.shardFrom[s.Index], nil); err != nil {
			return nil, err
		}
		r.arena = append(r.arena, make([]byte, s.N*sampleSize))
		if s.N > maxN {
			maxN = s.N
		}
	}
	r.batch = make([]netsim.Message, maxN)
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
	Lost, Down   int // batch enqueue outcomes (in-flight loss / down endpoints)
	Malformed    int

	Totals    netsim.Stats
	SimTimeMS float64
	EnergyMJ  float64
	Alive     int
}

// Run drives a campaign: Rounds times (tick → report → merge in shard
// order → flush), then decodes every zone against the collected
// measurements and assembles the global field. Requires SetTruth. The
// merge loop is the determinism linchpin: shards enqueue in ascending
// shard index on the single driving goroutine, so the network's RNG
// stream (loss, dup, reorder draws) is a pure function of the seeds.
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
			batch := r.buildBatch(s)
			if len(batch) == 0 {
				continue
			}
			res.Reports += len(batch)
			br, err := r.Net.DeliverBatch(batch)
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

// buildBatch encodes shard s's report scratch into its payload arena
// and the shared message batch. The arena is reused every round: netsim
// references payload slices only until the following Flush — it keeps its
// queue's backing array across rounds but clears every slot there
// (TestFlushReusesQueueAndDropsPayloads) — and the run loop flushes
// before the next buildBatch touches the arena.
func (r *Runner) buildBatch(s *Shard) []netsim.Message {
	from := r.shardFrom[s.Index]
	to := r.zoneTo[s.Zone]
	arena := r.arena[s.Index]
	for j := 0; j < s.repN; j++ {
		pay := arena[j*sampleSize : (j+1)*sampleSize]
		encodeSample(pay, uint32(s.repCell[j]), uint32(s.repNode[j]), s.repValue[j], s.repSigma[j])
		r.batch[j] = netsim.Message{From: from, To: to, Topic: MeasureTopic, Payload: pay}
	}
	return r.batch[:s.repN]
}

// decode reconstructs every zone from its collector via the matrix-free
// CHS decoder, in parallel over zones (each zone's decode is a pure
// function of its collected measurements), then assembles and scores
// the global field sequentially in zone order.
func (r *Runner) decode(cfg CampaignConfig, res *Result) error {
	p := r.Pop
	subs := make([]*field.Field, len(p.Zones))
	errs := make([]error, len(p.Zones))
	forEachIndex(len(p.Zones), func(z int) {
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
			opts.V = cs.NoiseCovariance(zc.sigmas, 1e-4)
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
