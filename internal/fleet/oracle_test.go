package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/netsim"
)

// replayPhases draws shard s's duty phases again from its seed, in the
// order newShard draws them: the waypoints first, then a phase and a
// noise level per node.
func replayPhases(t *testing.T, s *Shard, cfg Config) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(shardSeed(cfg.Seed, s.Index)))
	if _, err := mobility.InitWaypoints(rng, s.params, s.N); err != nil {
		t.Fatal(err)
	}
	phase := make([]int, s.N)
	for i := range phase {
		phase[i] = rng.Intn(cfg.DutyPeriod)
		rng.Float64()
	}
	return phase
}

// scanStep moves the shard's due, live nodes by their own elapsed time,
// scanning every node in index order: node i last moved at last[i], and
// the shard has lived now seconds. These are the group's arrival draws.
func scanStep(s *Shard, phase []int, due int, last []float64, now float64) {
	for i := 0; i < s.N; i++ {
		if phase[i] != due || s.bank.Depleted(i) {
			continue
		}
		mobility.StepWaypoint(s.rng, s.params, s.way, i, now-last[i])
		last[i] = now
	}
}

// scanReport is report's sampling as a scan of every node of the shard,
// checking each node's phase against the round's due offset: one noise
// draw per due, live node, in index order.
func scanReport(s *Shard, phase []int, due int, truth *field.Field, costMJ float64) {
	s.repN = 0
	gh := s.zone.H
	for i := 0; i < s.N; i++ {
		if phase[i] != due || s.bank.Depleted(i) {
			continue
		}
		cell := mobility.GridIndex(mobility.Point{X: s.way.X[i], Y: s.way.Y[i]}, s.params.W, s.params.H, s.zone.W, gh)
		v := truth.At(s.zone.Row0+cell%gh, s.zone.Col0+cell/gh) + s.rng.NormFloat64()*s.sigma[i]
		s.bank.Drain(i, costMJ)
		encodeSample(s.env[s.repN*sampleSize:(s.repN+1)*sampleSize], uint32(cell), uint32(i), v, s.sigma[i])
		s.repN++
	}
}

// serialRun is the oracle for Run: the campaign loop without the phase
// index, the shard clocks or Tick. Each round drains every battery for
// one idle second, moves each due, live node by the time since it last
// moved (a per-node clock), samples the due nodes, merges, and flushes
// before the next round. A zone whose collector holds its budget after a
// flush reports no more: its nodes neither move nor sample.
func serialRun(t *testing.T, r *Runner, cfg CampaignConfig) *Result {
	t.Helper()
	p := r.Pop
	period := p.Cfg.DutyPeriod
	phases := make([][]int, len(p.Shards))
	last := make([][]float64, len(p.Shards))
	for _, s := range p.Shards {
		phases[s.Index] = replayPhases(t, s, p.Cfg)
		last[s.Index] = make([]float64, s.N)
	}
	res := &Result{}
	full := make([]bool, len(p.Zones))
	for round := 0; round < period; round++ {
		now := float64(round + 1)
		due := ((-round)%period + period) % period
		for _, s := range p.Shards {
			s.bank.DrainAll(p.idleMJ)
			if full[s.Zone] {
				s.repN = 0
				continue
			}
			scanStep(s, phases[s.Index], due, last[s.Index], now)
			scanReport(s, phases[s.Index], due, p.truth, p.costMJ)
		}
		if err := r.merge(res); err != nil {
			t.Fatal(err)
		}
		r.Net.Flush()
		for z, zc := range r.collectors {
			full[z] = zc.Budget > 0 && len(zc.locs) >= zc.Budget
		}
	}
	res, err := r.finish(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// diffResults names the first field in which two campaign results differ,
// floats compared bit for bit, or returns "".
func diffResults(got, want *Result) string {
	floats := func(name string, g, w []float64) string {
		if len(g) != len(w) {
			return fmt.Sprintf("%s: length %d, want %d", name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
		return ""
	}
	if d := floats("Global.Data", got.Global.Data, want.Global.Data); d != "" {
		return d
	}
	if d := floats("ZoneNMSE", got.ZoneNMSE, want.ZoneNMSE); d != "" {
		return d
	}
	if d := floats("GlobalNMSE/SimTimeMS/EnergyMJ",
		[]float64{got.GlobalNMSE, got.SimTimeMS, got.EnergyMJ},
		[]float64{want.GlobalNMSE, want.SimTimeMS, want.EnergyMJ}); d != "" {
		return d
	}
	type counts struct {
		Reports, Envelopes, Measurements, Lost, Down, Malformed, Alive int
		Totals                                                         netsim.Stats
	}
	g := counts{got.Reports, got.Envelopes, got.Measurements, got.Lost, got.Down, got.Malformed, got.Alive, got.Totals}
	w := counts{want.Reports, want.Envelopes, want.Measurements, want.Lost, want.Down, want.Malformed, want.Alive, want.Totals}
	if g != w {
		return fmt.Sprintf("counts %+v, want %+v", g, w)
	}
	return ""
}

// TestRunMatchesSerialScanOracle: Run, with its phase index, its lazy
// per-group mobility and its closed zones, equals the serial
// scan-every-node loop on every Result field,
// under burst loss, duplication, reorder and a collector crash, at
// GOMAXPROCS 1 and 4.
func TestRunMatchesSerialScanOracle(t *testing.T) {
	cfg := Config{
		Nodes: 6000, ShardSize: 512,
		FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2, Seed: 17,
	}
	faults := func(r *Runner) {
		r.Plan.SetDuplicateProb(0.2)
		r.Plan.SetReorderProb(0.15)
		r.Plan.Crash(ZoneEndpoint(2), 300, 800) // round 0 sends about 750
		r.Plan.SetBurstLink(ShardEndpoint(1), ZoneEndpoint(0),
			netsim.GilbertElliott{PGoodToBad: 0.3, PBadToGood: 0.4, LossGood: 0, LossBad: 0.9})
	}
	runner := func() *Runner {
		p, err := NewPopulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetTruth(testTruth(cfg.FieldW, cfg.FieldH)); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(p, cfg.Seed+1000, 64)
		if err != nil {
			t.Fatal(err)
		}
		faults(r)
		return r
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		want := serialRun(t, runner(), CampaignConfig{})
		got, err := runner().Run(CampaignConfig{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if tot := want.Totals; want.Lost == 0 || want.Down == 0 || tot.RxMessages <= tot.TxMessages-tot.Dropped {
			t.Fatalf("GOMAXPROCS=%d: the fault plan lost, refused or duplicated nothing: %+v", procs, want)
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("GOMAXPROCS=%d: Run differs from the serial oracle: %s", procs, d)
		}
	}
}

// TestHandDrivenTickReportMatchesRun drives Population.Tick and Report by
// hand, one call each per round as a caller without a Runner would, and
// checks that every round's envelope arenas, concatenated in shard order,
// are byte for byte what Run delivers to the zone collectors on an
// unbudgeted runner, whose zones never close.
func TestHandDrivenTickReportMatchesRun(t *testing.T) {
	cfg := Config{
		Nodes: 3000, ShardSize: 256,
		FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2, Seed: 23,
	}
	population := func() *Population {
		p, err := NewPopulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetTruth(testTruth(cfg.FieldW, cfg.FieldH)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)

		var byHand []byte
		p := population()
		for round := 0; round < p.Cfg.DutyPeriod; round++ {
			p.Tick(1)
			p.Report(round)
			for _, s := range p.Shards {
				byHand = append(byHand, s.env[:s.repN*sampleSize]...)
			}
		}

		// Run on a fault-free network whose collectors also record every
		// payload in delivery order, which is enqueue order: shard order
		// within a round.
		r, err := NewRunner(population(), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var delivered []byte
		r.Net = netsim.New(1)
		r.Net.SetAsync(true)
		for z, zc := range r.collectors {
			if err := r.Net.Register(r.zoneTo[z], func(m netsim.Message) {
				delivered = append(delivered, m.Payload...)
				zc.ingest(netsim.Run{From: m.From, To: m.To, Topic: m.Topic, Count: 1, Payload: m.Payload})
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, from := range r.shardFrom {
			if err := r.Net.Register(from, nil); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Run(CampaignConfig{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reports != cfg.Nodes || len(byHand) != cfg.Nodes*sampleSize {
			t.Fatalf("GOMAXPROCS=%d: %d reports by Run and %d bytes by hand, want %d nodes", procs, res.Reports, len(byHand), cfg.Nodes)
		}
		if !bytes.Equal(byHand, delivered) {
			at := 0
			for at < len(byHand) && at < len(delivered) && byHand[at] == delivered[at] {
				at++
			}
			t.Fatalf("GOMAXPROCS=%d: hand-driven arenas differ from Run's at envelope %d of %d", procs, at/sampleSize, cfg.Nodes)
		}
	}
}
