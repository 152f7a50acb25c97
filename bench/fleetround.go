package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/field"
	"repro/internal/fleet"
)

const (
	fleetNodes      = 250_000
	fleetShard      = 8192
	fleetGrid       = 256
	fleetZones      = 4 // per side
	fleetBudget     = 1024
	fleetMaxSupport = 64
	fleetEnvelope   = 24 // bytes per measurement envelope on the simulated network
)

// fleetRound is the struct-of-arrays fleet backend at the million-node
// geometry and a quarter of its population. A campaign consumes its
// population (batteries, positions), so the op is the whole life of one:
// build, install the truth, wire the runner, run a duty cycle, decode.
type fleetRound struct {
	fields []*field.Field
	n      int
}

func buildFleetRound(in *inputs) (deployment, error) {
	return &fleetRound{fields: in.fields}, nil
}

func (d *fleetRound) config(i int) fleet.Config {
	return fleet.Config{
		Nodes: fleetNodes, ShardSize: fleetShard,
		FieldW: fleetGrid, FieldH: fleetGrid, ZoneRows: fleetZones, ZoneCols: fleetZones,
		Seed: deploymentSeed + int64(i),
	}
}

// construct is the build half of an op.
func (d *fleetRound) construct(i int) (*fleet.Runner, error) {
	p, err := fleet.NewPopulation(d.config(i))
	if err != nil {
		return nil, err
	}
	if err := p.SetTruth(d.fields[i%len(d.fields)]); err != nil {
		return nil, err
	}
	return fleet.NewRunner(p, deploymentSeed-int64(i), fleetBudget)
}

func (d *fleetRound) op() (opOut, error) {
	return d.staged(nil, counts{})
}

// staged is the op itself under two spans: the program has no finer
// exported seam than construction and Run. extras splits Run further on
// a twin population.
func (d *fleetRound) staged(tr *tracer, seen counts) (opOut, error) {
	i := d.n
	d.n++
	root := tr.begin(0, i, "op")
	defer tr.end(root)

	s := tr.begin(root, i, "build")
	r, err := d.construct(i)
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	s = tr.begin(root, i, "run")
	res, err := r.Run(fleet.CampaignConfig{MaxSupport: fleetMaxSupport})
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	if err := reconcileFleet(res); err != nil {
		return opOut{}, err
	}
	seen["fleet.reports"] += float64(res.Reports)
	seen["fleet.envelopes"] += float64(res.Envelopes)
	seen["fleet.measurements"] += float64(res.Measurements)
	seen["fleet.lost"] += float64(res.Totals.Dropped)
	seen["netsim.tx"] += float64(res.Totals.TxMessages)
	seen["netsim.rx"] += float64(res.Totals.RxMessages)
	return opOut{nmse: res.GlobalNMSE, bytes: int64(res.Totals.TxBytes)}, nil
}

// reconcileFleet checks a campaign's own counters against the simulated
// network's ledger, by the charged-vs-delivered invariant netsim
// documents: a report is either refused at a down endpoint (nothing
// charged) or transmitted and charged; a charged envelope is either
// dropped or received, and — no duplication being configured — received
// once; and a collector can neither hear more than was sent nor keep
// more than its budget.
func reconcileFleet(res *fleet.Result) error {
	t := res.Totals
	zones := fleetZones * fleetZones
	switch {
	case t.TxMessages != res.Reports-res.Down:
		return fmt.Errorf("fleet: %d transmissions charged for %d reports with %d refused", t.TxMessages, res.Reports, res.Down)
	case t.TxBytes != fleetEnvelope*t.TxMessages:
		return fmt.Errorf("fleet: %d bytes charged for %d envelopes of %d bytes", t.TxBytes, t.TxMessages, fleetEnvelope)
	case t.Dropped < res.Lost:
		return fmt.Errorf("fleet: %d drops charged, %d envelopes lost in flight", t.Dropped, res.Lost)
	case t.RxMessages != t.TxMessages-t.Dropped:
		return fmt.Errorf("fleet: %d received of %d charged with %d dropped", t.RxMessages, t.TxMessages, t.Dropped)
	case res.Envelopes+res.Malformed != t.RxMessages:
		return fmt.Errorf("fleet: collectors handled %d envelopes, network delivered %d", res.Envelopes+res.Malformed, t.RxMessages)
	case res.Envelopes > res.Reports:
		return fmt.Errorf("fleet: %d envelopes from %d reports", res.Envelopes, res.Reports)
	case res.Measurements > zones*fleetBudget:
		return fmt.Errorf("fleet: %d measurements kept, budget is %d", res.Measurements, zones*fleetBudget)
	}
	return nil
}

func (d *fleetRound) book(m *metricSet, _ stageLedger, perOp counts) {
	m.set("fleet.reports_per_op", perOp["fleet.reports"])
	m.set("fleet.envelopes_per_op", perOp["fleet.envelopes"])
	m.set("fleet.measurements_per_op", perOp["fleet.measurements"])
	m.set("fleet.lost_per_op", perOp["fleet.lost"])
	if perOp["netsim.tx"] > 0 {
		m.set("netsim.delivered_ratio", perOp["netsim.rx"]/perOp["netsim.tx"])
	}
}

// extras takes one more campaign apart. Construction and Run are timed
// and their allocation read separately; the tick and report kernels are
// then timed over a duty cycle on a same-seed twin population, since
// Run gives no seam between them and the network traffic. What is left
// of Run after the twin's tick and report is delivery plus decode.
func (d *fleetRound) extras(m *metricSet, _ time.Duration) error {
	i := d.n
	d.n++
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	r, err := d.construct(i)
	if err != nil {
		return err
	}
	build := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	t0 = time.Now()
	if _, err := r.Run(fleet.CampaignConfig{MaxSupport: fleetMaxSupport}); err != nil {
		return err
	}
	run := time.Since(t0)
	runtime.ReadMemStats(&ms2)

	twin, err := d.construct(i)
	if err != nil {
		return err
	}
	var tick, report time.Duration
	for round := 0; round < twin.Pop.Cfg.DutyPeriod; round++ {
		t0 = time.Now()
		twin.Pop.Tick(1)
		tick += time.Since(t0)
		t0 = time.Now()
		twin.Pop.Report(round)
		report += time.Since(t0)
	}
	const mb = 1 << 20
	m.set("fleet.build_ms", ms(build))
	m.set("fleet.run_ms", ms(run))
	m.set("fleet.tick_ms", ms(tick))
	m.set("fleet.report_ms", ms(report))
	m.set("fleet.deliver_decode_ms", ms(run-tick-report))
	m.set("fleet.alloc_mb_build", float64(ms1.TotalAlloc-ms0.TotalAlloc)/mb)
	m.set("fleet.alloc_mb_run", float64(ms2.TotalAlloc-ms1.TotalAlloc)/mb)
	return nil
}

func (d *fleetRound) close() {}
