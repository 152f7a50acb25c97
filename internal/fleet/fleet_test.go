package fleet

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/basis"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/testutil"
)

func testTruth(w, h int) *field.Field {
	return field.GenPlumes(w, h, 8, []field.Plume{
		{Row: float64(h) * 0.3, Col: float64(w) * 0.6, Sigma: float64(w) * 0.09, Amplitude: 24},
		{Row: float64(h) * 0.7, Col: float64(w) * 0.25, Sigma: float64(w) * 0.07, Amplitude: 16},
	})
}

func runFleet(t *testing.T, cfg Config, budget int, ccfg CampaignConfig, faults func(*Runner)) *Result {
	t.Helper()
	p, err := NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetTruth(testTruth(cfg.FieldW, cfg.FieldH)); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, cfg.Seed+1000, budget)
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		faults(r)
	}
	res, err := r.Run(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPopulationShardLayout: nodes spread evenly over zones, shards cut
// at ShardSize, merge order covers every shard exactly once.
func TestPopulationShardLayout(t *testing.T) {
	p, err := NewPopulation(Config{
		Nodes: 1000, ShardSize: 128,
		FieldW: 16, FieldH: 16, ZoneRows: 2, ZoneCols: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	perZone := make([]int, len(p.Zones))
	for i, s := range p.Shards {
		if s.Index != i {
			t.Fatalf("shard %d carries index %d", i, s.Index)
		}
		if s.N <= 0 || s.N > 128 {
			t.Fatalf("shard %d has %d nodes, want 1..128", i, s.N)
		}
		total += s.N
		perZone[s.Zone] += s.N
	}
	if total != 1000 {
		t.Fatalf("shards cover %d nodes, want 1000", total)
	}
	for z, n := range perZone {
		if n != 250 {
			t.Fatalf("zone %d has %d nodes, want 250", z, n)
		}
	}
}

// TestFleetCampaignDeterministicAcrossGOMAXPROCS is the tentpole's
// acceptance bar: the full campaign result — reconstruction floats,
// NMSE, traffic totals, energy — is identical at GOMAXPROCS=1 and
// GOMAXPROCS=N, because shards own their RNGs and every reduction runs
// in fixed order.
func TestFleetCampaignDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{
		Nodes: 6000, ShardSize: 512,
		FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2, Seed: 42,
	}
	run := func(procs int) *Result {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return runFleet(t, cfg, 64, CampaignConfig{}, nil)
	}
	serial := run(1)
	parallel := run(4)

	if serial.GlobalNMSE != parallel.GlobalNMSE {
		t.Fatalf("NMSE diverges: serial %v, parallel %v", serial.GlobalNMSE, parallel.GlobalNMSE)
	}
	for i := range serial.Global.Data {
		if serial.Global.Data[i] != parallel.Global.Data[i] {
			t.Fatalf("reconstruction cell %d diverges: %v vs %v",
				i, serial.Global.Data[i], parallel.Global.Data[i])
		}
	}
	for z := range serial.ZoneNMSE {
		if serial.ZoneNMSE[z] != parallel.ZoneNMSE[z] {
			t.Fatalf("zone %d NMSE diverges", z)
		}
	}
	if serial.Totals != parallel.Totals {
		t.Fatalf("traffic totals diverge: %+v vs %+v", serial.Totals, parallel.Totals)
	}
	if serial.EnergyMJ != parallel.EnergyMJ {
		t.Fatalf("energy diverges: %v vs %v", serial.EnergyMJ, parallel.EnergyMJ)
	}
	if serial.Reports != parallel.Reports || serial.Envelopes != parallel.Envelopes ||
		serial.SimTimeMS != parallel.SimTimeMS {
		t.Fatalf("accounting diverges: %+v vs %+v", serial, parallel)
	}
}

// TestFleetCampaignReconstructs: a fault-free campaign over a plume
// field reconstructs it well, every on-duty report is accounted for,
// and the energy ledger matches the closed-form expectation.
func TestFleetCampaignReconstructs(t *testing.T) {
	testutil.CheckGoroutines(t)
	cfg := Config{
		Nodes: 4096, ShardSize: 512,
		FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2, Seed: 7,
	}
	res := runFleet(t, cfg, 0, CampaignConfig{}, nil)

	if res.GlobalNMSE > 0.05 {
		t.Fatalf("fault-free fleet campaign NMSE %v, want <= 0.05", res.GlobalNMSE)
	}
	// DutyPeriod rounds ⇒ every node reports exactly once (no battery
	// dies at these budgets), and with no faults every report arrives.
	if res.Reports != cfg.Nodes {
		t.Fatalf("reports %d, want %d (every node exactly once over a duty period)", res.Reports, cfg.Nodes)
	}
	if res.Envelopes != cfg.Nodes || res.Lost != 0 || res.Down != 0 || res.Malformed != 0 {
		t.Fatalf("delivery accounting off: %+v", res)
	}
	if res.Totals.TxMessages != cfg.Nodes || res.Totals.RxMessages != cfg.Nodes {
		t.Fatalf("netsim totals %+v, want %d tx and rx", res.Totals, cfg.Nodes)
	}
	if res.Totals.TxBytes != cfg.Nodes*sampleSize {
		t.Fatalf("tx bytes %d, want %d", res.Totals.TxBytes, cfg.Nodes*sampleSize)
	}
	if res.Alive != cfg.Nodes {
		t.Fatalf("alive %d, want %d", res.Alive, cfg.Nodes)
	}
	// Energy ledger: 8 rounds × 1 s idle draw per node, plus one report
	// each (temperature sample + a 24-byte WiFi envelope with wake cost;
	// magnitudes from energy.DefaultModel).
	wantIdle := float64(cfg.Nodes) * 7.0 * 8.0
	wantReports := float64(res.Reports) * (0.002 + 6.0 + 0.0006*sampleSize)
	want := wantIdle + wantReports
	if math.Abs(res.EnergyMJ-want) > 1e-6*want {
		t.Fatalf("energy %v MJ, want %v (idle %v + reports %v)", res.EnergyMJ, want, wantIdle, wantReports)
	}
}

// TestFleetObsCountersReconcileUnderFaults is the acceptance criterion:
// with dup, reorder, a zone crash window, and burst loss all active,
// the netsim obs mirrors still reconcile exactly with Totals().
func TestFleetObsCountersReconcileUnderFaults(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	txM0 := obs.GetCounter("netsim.tx.messages").Value()
	txB0 := obs.GetCounter("netsim.tx.bytes").Value()
	rxM0 := obs.GetCounter("netsim.rx.messages").Value()
	rxB0 := obs.GetCounter("netsim.rx.bytes").Value()
	lost0 := obs.GetCounter("netsim.lost.messages").Value()
	dup0 := obs.GetCounter("netsim.fault.duplicated").Value()
	down0 := obs.GetCounter("netsim.fault.down").Value()

	cfg := Config{
		Nodes: 2048, ShardSize: 256,
		FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2, Seed: 99,
	}
	res := runFleet(t, cfg, 0, CampaignConfig{}, func(r *Runner) {
		r.Plan.SetDuplicateProb(0.2)
		r.Plan.SetReorderProb(0.15)
		r.Plan.Crash(ZoneEndpoint(1), 100, 400) // zone 1 collector down mid-campaign
		r.Plan.SetBurstLink(ShardEndpoint(0), ZoneEndpoint(0),
			netsim.GilbertElliott{PGoodToBad: 0.3, PBadToGood: 0.4, LossGood: 0, LossBad: 0.9})
	})

	dup := obs.GetCounter("netsim.fault.duplicated").Value() - dup0
	down := obs.GetCounter("netsim.fault.down").Value() - down0
	if dup == 0 || down == 0 || res.Lost == 0 || res.Down == 0 {
		t.Fatalf("fault scenario did not exercise dup/down/loss: dup=%d down=%d res=%+v", dup, down, res)
	}
	tot := res.Totals
	if got := obs.GetCounter("netsim.tx.messages").Value() - txM0; got != int64(tot.TxMessages) {
		t.Fatalf("obs tx.messages %d != Totals %d", got, tot.TxMessages)
	}
	if got := obs.GetCounter("netsim.tx.bytes").Value() - txB0; got != int64(tot.TxBytes) {
		t.Fatalf("obs tx.bytes %d != Totals %d", got, tot.TxBytes)
	}
	if got := obs.GetCounter("netsim.rx.messages").Value() - rxM0; got != int64(tot.RxMessages) {
		t.Fatalf("obs rx.messages %d != Totals %d", got, tot.RxMessages)
	}
	if got := obs.GetCounter("netsim.rx.bytes").Value() - rxB0; got != int64(tot.RxBytes) {
		t.Fatalf("obs rx.bytes %d != Totals %d", got, tot.RxBytes)
	}
	if got := obs.GetCounter("netsim.lost.messages").Value() - lost0; got != int64(tot.Dropped) {
		t.Fatalf("obs lost.messages %d != Totals().Dropped %d", got, tot.Dropped)
	}
	// Rx = every delivered envelope; the collectors saw exactly those.
	if res.Envelopes != tot.RxMessages {
		t.Fatalf("collectors saw %d envelopes, rx charged %d", res.Envelopes, tot.RxMessages)
	}
	// The crashed zone heard less than its healthy peers.
	if res.ZoneNMSE[1] <= res.ZoneNMSE[0] && res.ZoneNMSE[1] <= res.ZoneNMSE[2] {
		t.Logf("note: crashed zone NMSE %v not worst (zones %v) — acceptable, seed-dependent", res.ZoneNMSE[1], res.ZoneNMSE)
	}
}

// TestCollectorDupIdempotentAndBudget: duplicated envelopes do not grow
// the measurement set, a re-report replaces the value and its σ,
// malformed payloads are counted out, and the budget caps distinct cells,
// whether the envelopes arrive as one-message runs or several to a run.
func TestCollectorDupIdempotent(t *testing.T) {
	zc := newZoneCollector(field.Zone{W: 4, H: 4}, 2)
	pay := make([]byte, sampleSize)
	encodeSample(pay, 5, 0, 1.5, 0.1)
	zc.ingest(netsim.Run{Count: 1, Payload: pay})
	zc.ingest(netsim.Run{Count: 1, Payload: pay}) // duplicate: value update only
	if zc.Count() != 1 || zc.envelopes != 2 {
		t.Fatalf("count=%d envelopes=%d, want 1 and 2", zc.Count(), zc.envelopes)
	}
	encodeSample(pay, 5, 3, 1.75, 0.05) // re-report from another node
	zc.ingest(netsim.Run{Count: 1, Payload: pay})
	if zc.Count() != 1 || zc.vals[0] != 1.75 || zc.sigmas[0] != 0.05 {
		t.Fatalf("re-report kept value %v σ %v, want 1.75 and 0.05", zc.vals, zc.sigmas)
	}
	encodeSample(pay, 6, 1, 2.5, 0.1)
	zc.ingest(netsim.Run{Count: 1, Payload: pay})
	encodeSample(pay, 7, 2, 3.5, 0.1) // beyond budget 2
	zc.ingest(netsim.Run{Count: 1, Payload: pay})
	if zc.Count() != 2 || zc.rejected != 1 || len(zc.sigmas) != 2 || zc.sigmas[1] != 0.1 || cap(zc.sigmas) != 2 {
		t.Fatalf("count=%d rejected=%d sigmas=%v, want 2, 1 and [0.05 0.1] in the budget's capacity", zc.Count(), zc.rejected, zc.sigmas)
	}
	encodeSample(pay, 99, 3, 0, 0) // cell out of the 16-cell zone
	zc.ingest(netsim.Run{Count: 1, Payload: pay})
	zc.ingest(netsim.Run{Count: 1, Payload: pay[:7]})
	if zc.malformed != 2 {
		t.Fatalf("malformed=%d, want 2", zc.malformed)
	}

	// One run of five: a first report, its duplicate, a re-report of the
	// same cell, a cell out of the zone, and a second cell.
	zc = newZoneCollector(field.Zone{W: 4, H: 4}, 2)
	run := make([]byte, 5*sampleSize)
	encodeSample(run[0:], 5, 0, 1.5, 0.1)
	copy(run[sampleSize:], run[:sampleSize])
	encodeSample(run[2*sampleSize:], 5, 3, 1.75, 0.05)
	encodeSample(run[3*sampleSize:], 99, 4, 0, 0)
	encodeSample(run[4*sampleSize:], 6, 1, 2.5, 0.2)
	zc.ingest(netsim.Run{Count: 5, Payload: run})
	if zc.Count() != 2 || zc.envelopes != 4 || zc.malformed != 1 ||
		zc.locs[0] != 5 || zc.vals[0] != 1.75 || zc.sigmas[0] != 0.05 ||
		zc.locs[1] != 6 || zc.vals[1] != 2.5 || zc.sigmas[1] != 0.2 {
		t.Fatalf("run of five: count=%d envelopes=%d malformed=%d locs=%v vals=%v sigmas=%v",
			zc.Count(), zc.envelopes, zc.malformed, zc.locs, zc.vals, zc.sigmas)
	}
	// A run whose messages are not envelope-sized is malformed whole.
	zc.ingest(netsim.Run{Count: 3, Payload: run[:3*(sampleSize-4)]})
	if zc.Count() != 2 || zc.envelopes != 4 || zc.malformed != 4 {
		t.Fatalf("after a run of 20-byte messages: count=%d envelopes=%d malformed=%d, want 2, 4 and 4",
			zc.Count(), zc.envelopes, zc.malformed)
	}
}

// TestSampleCodecRoundTrip covers the envelope wire format.
func TestSampleCodecRoundTrip(t *testing.T) {
	b := make([]byte, sampleSize)
	encodeSample(b, 1234, 56, -3.25, 0.125)
	cell, node, v, sg, ok := decodeSample(b)
	if !ok || cell != 1234 || node != 56 || v != -3.25 || sg != 0.125 {
		t.Fatalf("round trip: %d %d %v %v %v", cell, node, v, sg, ok)
	}
	if _, _, _, _, ok := decodeSample(b[:sampleSize-1]); ok {
		t.Fatal("short payload decoded")
	}
}

// TestFleetZoneDecodesStopAtNoiseFloor: at the bench's zone shape (64×64,
// 1024 readings, support cap 64) a zone decode stops at the support cap
// or once its residual is down to the readings' noise, and the smooth
// zones stop there well under the cap. Summed over the zones, the fields
// recovered are closer to the truth than the 64-atom decodes of the same
// readings, which fit noise.
func TestFleetZoneDecodesStopAtNoiseFloor(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	floor := obs.GetCounter("cs.chs.stop.noise_floor")
	capped := obs.GetCounter("cs.chs.stop.support_cap")
	floor0, capped0 := floor.Value(), capped.Value()
	cfg := Config{
		Nodes: 8192, ShardSize: 1024,
		FieldW: 128, FieldH: 128, ZoneRows: 2, ZoneCols: 2, Seed: 11,
	}
	p, err := NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetTruth(testTruth(cfg.FieldW, cfg.FieldH)); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, 5, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const k = 64
	res, err := r.Run(CampaignConfig{MaxSupport: k})
	if err != nil {
		t.Fatal(err)
	}
	atFloor, atCap := floor.Value()-floor0, capped.Value()-capped0
	if atFloor+atCap != int64(len(p.Zones)) || atFloor < 2 {
		t.Fatalf("%d zone decodes stopped at the noise floor and %d at the cap, want all %d and at least 2 at the floor", atFloor, atCap, len(p.Zones))
	}
	op, err := basis.CachedOperator2D(basis.KindDCT, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	noisy, fit := 0.0, 0.0
	for z, zc := range r.collectors {
		full, err := cs.CHSOp(op, zc.locs, zc.vals, cs.CHSOptions{MaxSupport: k, MaxIter: k, Tol: 1e-8, PerIter: 1})
		if err != nil {
			t.Fatal(err)
		}
		noisy += cs.ZoneNMSE(p.truth, zc.Zone, full.Xhat)
		fit += res.ZoneNMSE[z]
	}
	if fit >= noisy {
		t.Fatalf("zone NMSE sums to %.3g with the noise stop, %.3g with %d atoms a zone", fit, noisy, k)
	}
}

// TestFleetStepsOnlyDueNodes pins the fleet's mobility work: with no
// battery run out, a campaign moves each node once, in the round it
// reports, so one Run adds exactly Config.Nodes to fleet.node_steps
// (moving every node every round would add DutyPeriod × Nodes). Driving
// Tick and Report by hand does the same work.
func TestFleetStepsOnlyDueNodes(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	steps := obs.GetCounter("fleet.node_steps")
	cfg := Config{
		Nodes: 5000, ShardSize: 512,
		FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2, Seed: 3,
	}
	before := steps.Value()
	res := runFleet(t, cfg, 64, CampaignConfig{}, nil)
	if res.Alive != cfg.Nodes {
		t.Fatalf("%d of %d nodes alive, want all", res.Alive, cfg.Nodes)
	}
	if got := steps.Value() - before; got != int64(cfg.Nodes) {
		t.Fatalf("Run moved nodes %d times, want %d (one move per node)", got, cfg.Nodes)
	}

	p, err := NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetTruth(testTruth(cfg.FieldW, cfg.FieldH)); err != nil {
		t.Fatal(err)
	}
	before = steps.Value()
	for round := 0; round < p.Cfg.DutyPeriod; round++ {
		p.Tick(1)
		p.Report(round)
	}
	if got := steps.Value() - before; got != int64(cfg.Nodes) {
		t.Fatalf("Tick/Report by hand moved nodes %d times, want %d", got, cfg.Nodes)
	}
}
