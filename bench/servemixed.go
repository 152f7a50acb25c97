package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/sensor"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/stream"
)

const (
	serveGrid     = 64
	serveZones    = 4 // per side
	serveBudget   = 960
	serveDT       = 0.1
	serveRetain   = 8
	serveSeedTol  = 0.5
	querySample   = 64    // every 64th query is timed and checked
	queryStreamSz = 16381 // prime, so the timed every-64th query walks the whole stream
)

// serveMixed is the continuous-service deployment: a stream.Pipeline
// publishing a window into a snapshot.Registry on a fixed cadence while
// a serve.Server answers reads of the latest snapshot. Its op is one
// window; its queries run beside the windows on a goroutine of their own.
type serveMixed struct {
	sd      *core.SenseDroid
	reg     *snapshot.Registry
	pipe    *stream.Pipeline
	srv     *serve.Server
	st      *store.Store
	tracks  []plumeTrack
	queries []readQuery
	meter   busMeter

	// State of the staged replay of stream.Pipeline.StepContext, which
	// keeps its own step counter and warm-start supports.
	step int
	t    float64
	prev map[int][]int
}

func buildServeMixed(in *inputs) (deployment, error) {
	opts := core.Options{
		FieldW: serveGrid, FieldH: serveGrid, ZoneRows: serveZones, ZoneCols: serveZones,
		NCsPerZone: 1, NodesPerNC: 8, Seed: deploymentSeed, Timeout: 2 * time.Second,
	}
	d := &serveMixed{
		tracks:  in.tracks,
		queries: in.queries,
		st:      store.New(1024),
		reg:     snapshot.NewRegistry(serveRetain),
		prev:    map[int][]int{},
	}
	sd, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	d.sd = sd
	d.meter.watch(sd)
	if err := sd.SetTruth(d.truthAt(0)); err != nil {
		sd.Close()
		return nil, err
	}
	d.pipe, err = stream.New(sd, d.reg, d.pipeConfig(true))
	if err == nil {
		d.srv, err = serve.New(d.reg, serveGrid, serveGrid, serveZones, serveZones)
	}
	if err != nil {
		sd.Close()
		return nil, err
	}
	return d, nil
}

func (d *serveMixed) truthAt(t float64) *field.Field {
	return evolve(d.tracks, serveGrid, serveGrid, t)
}

func (d *serveMixed) pipeConfig(warm bool) stream.Config {
	return stream.Config{
		Budget: serveBudget, WarmStart: warm, SeedRelTol: serveSeedTol, DT: serveDT, Store: d.st,
		Evolve: func(_ int, t float64) *field.Field { return d.truthAt(t) },
	}
}

func (d *serveMixed) op() (opOut, error) {
	before := d.sd.BusBytes()
	snap, err := d.pipe.Step()
	if err != nil {
		return opOut{}, err
	}
	return opOut{nmse: snap.NMSE, bytes: d.sd.BusBytes() - before}, nil
}

// staged replays one window as StepContext runs it — evolve, tick,
// seeded assembly, score, publish, store append — through the same
// exported calls, on the replay's own clock and supports.
func (d *serveMixed) staged(tr *tracer, seen counts) (opOut, error) {
	d.step++
	d.t += serveDT
	i := d.step
	root := tr.begin(0, i, "op")
	defer tr.end(root)

	s := tr.begin(root, i, "tick")
	err := d.sd.SetTruth(d.truthAt(d.t))
	d.sd.Tick(serveDT)
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	before, msgs, hooked := d.sd.BusBytes(), d.meter.msgs.Load(), d.meter.bytes.Load()
	var seeds map[int][]int
	if len(d.prev) > 0 {
		seeds = d.prev
	}
	global, supports, err := stagedAssemble(d.sd, tr, root, i, seen, serveBudget,
		broker.ReconstructOptions{SeedRelTol: serveSeedTol}, seeds)
	if err != nil {
		return opOut{}, err
	}
	s = tr.begin(root, i, "score")
	nmse := stagedScore(d.sd, global)
	tr.end(s)

	s = tr.begin(root, i, "publish")
	_, err = d.reg.Publish(&snapshot.Snapshot{
		Step: i, T: d.t, Kind: sensor.Temperature, Field: global, Supports: supports,
		NMSE: nmse, Measurements: serveBudget,
	})
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	s = tr.begin(root, i, "append")
	err = d.st.Append("stream.window", store.Record{T: d.t, Values: []float64{nmse, serveBudget, 0, 0}})
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	d.prev = supports
	d.meter.since(msgs, hooked, seen)
	return opOut{nmse: nmse, bytes: d.sd.BusBytes() - before}, nil
}

func (d *serveMixed) book(m *metricSet, stages stageLedger, perOp counts) {
	bookAssembly(m, stages, perOp)
}

func (d *serveMixed) close() { d.sd.Close() }

// queryStats is what the query goroutine saw. It is written by that
// goroutine alone and read after it has been joined.
type queryStats struct {
	done    []interval // the querySample queries between two clock reads, for the bucket rates
	issued  int
	failed  int
	skipped int                // point checks whose snapshot had left the retention ring
	lat     [3][]time.Duration // sampled latency by query kind
	firstEr error
}

func (q *queryStats) fail(err error) {
	q.failed++
	if q.firstEr == nil {
		q.firstEr = err
	}
}

// runQueries issues the query stream back to back until stop is set. The
// clock is read once per querySample queries: that query is timed, and a
// timed point query is compared with a direct read of the snapshot whose
// version it reports. Once a second a whole-field aggregate is checked
// against a plain loop.
func (d *serveMixed) runQueries(stop *atomic.Bool, start time.Time, st *queryStats) {
	last := time.Since(start)
	nextAggCheck := last
	for i := 0; !stop.Load(); i++ {
		q := d.queries[i%len(d.queries)]
		if i%querySample != querySample-1 {
			if err := d.issue(q, false, false); err != nil {
				st.fail(err)
			}
			continue
		}
		checkAgg := q.kind == qAgg && q.zone == -1 && last >= nextAggCheck
		t0 := time.Now()
		err := d.issue(q, true, checkAgg)
		now := time.Since(start)
		st.lat[q.kind] = append(st.lat[q.kind], now-t0.Sub(start))
		switch {
		case errors.Is(err, errVersionGone):
			st.skipped++
		case err != nil:
			st.fail(err)
		}
		if checkAgg {
			nextAggCheck = now + time.Second
		}
		st.done = append(st.done, interval{last, now, querySample})
		st.issued += querySample
		last = now
	}
}

var errVersionGone = errors.New("snapshot version no longer retained")

// issue sends one query to the server. With check set, a point answer is
// compared bit for bit with the retained snapshot of the version it
// names; with checkAgg, an aggregate is recomputed by a plain loop.
func (d *serveMixed) issue(q readQuery, check, checkAgg bool) error {
	switch q.kind {
	case qPoint:
		res, err := d.srv.Point(q.row, q.col)
		if err != nil || !check {
			return err
		}
		snap := d.retained(res.Version)
		if snap == nil {
			return errVersionGone
		}
		if want := snap.Field.At(q.row, q.col); math.Float64bits(want) != math.Float64bits(res.Value) {
			return fmt.Errorf("point (%d,%d) v%d: served %v, snapshot holds %v", q.row, q.col, res.Version, res.Value, want)
		}
	case qRange:
		_, err := d.srv.Range(q.rect, queryFilters[q.filter].src)
		return err
	case qAgg:
		res, err := d.srv.Aggregate(q.zone, q.op, queryFilters[q.filter].src)
		if err != nil || !checkAgg {
			return err
		}
		snap := d.retained(res.Version)
		if snap == nil {
			return errVersionGone
		}
		want, cells := d.plainAggregate(snap.Field, q.op, queryFilters[q.filter].match)
		if cells != res.Cells || math.Abs(want-res.Value) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("aggregate %s %q v%d: served %v over %d cells, plain loop gives %v over %d",
				q.op, queryFilters[q.filter].src, res.Version, res.Value, res.Cells, want, cells)
		}
	}
	return nil
}

func (d *serveMixed) retained(version uint64) *snapshot.Snapshot {
	for _, s := range d.reg.History() {
		if s.Version == version {
			return s
		}
	}
	return nil
}

// plainAggregate folds the whole field under a predicate without the
// server: the reference the once-a-second cross-check compares against.
func (d *serveMixed) plainAggregate(f *field.Field, op serve.AggOp, match func(float64, int) bool) (float64, int) {
	sum, lo, hi, cells := 0.0, math.Inf(1), math.Inf(-1), 0
	for r := 0; r < f.H; r++ {
		for c := 0; c < f.W; c++ {
			v := f.At(r, c)
			if !match(v, d.srv.ZoneOf(r, c)) {
				continue
			}
			cells++
			sum += v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if cells == 0 {
		return 0, 0
	}
	switch op {
	case serve.AggSum:
		return sum, cells
	case serve.AggMean:
		return sum / float64(cells), cells
	case serve.AggMin:
		return lo, cells
	case serve.AggMax:
		return hi, cells
	default:
		return float64(cells), cells
	}
}

// bookMixed enters what windows with queries beside them showed of the
// stream and serve layers; quiet is the query-free warm-up.
func (d *serveMixed) bookMixed(m *metricSet, mixed, quiet *phaseStats, dur time.Duration) {
	q := &mixed.queries
	m.set("stream.sched_lag_p50_ms", median(mixed.lag))
	m.set("stream.late_frac", float64(mixed.late)/float64(max(len(mixed.ops), 1)))
	m.set("stream.backlog_max", float64(mixed.backlog))
	m.set("stream.alloc_kb_per_window", float64(quiet.mem.allocBytes)/1024/float64(max(len(quiet.ops), 1)))
	m.set("serve.queries_per_s", bucketMedianRate(q.done, dur))
	lat := func(kind int, p float64) float64 {
		xs := make([]float64, len(q.lat[kind]))
		for i, d := range q.lat[kind] {
			xs[i] = float64(d)
		}
		return quantile(xs, p)
	}
	m.set("serve.point_ns", lat(qPoint, 0.5))
	m.set("serve.range_us", lat(qRange, 0.5)/1e3)
	m.set("serve.agg_us", lat(qAgg, 0.5)/1e3)
	m.set("serve.range_p99_us", lat(qRange, 0.99)/1e3)
	m.set("serve.agg_p99_us", lat(qAgg, 0.99)/1e3)
	m.set("serve.check_skipped", float64(q.skipped))
}

// extras measures what neither a window nor a probe shows: the read
// path with ingest paused, and a closed-loop window warm and cold.
func (d *serveMixed) extras(m *metricSet, budget time.Duration) error {
	// Read-only: the same query goroutine with no window beside it.
	var (
		stop atomic.Bool
		st   queryStats
		done = make(chan struct{})
		ms0  runtime.MemStats
		ms1  runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	go func() {
		defer close(done)
		d.runQueries(&stop, start, &st)
	}()
	time.Sleep(budget / 2)
	stop.Store(true)
	<-done
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if st.failed > 0 {
		return fmt.Errorf("read-only phase: %d of %d queries failed: %w", st.failed, st.issued, st.firstEr)
	}
	readOnly := bucketMedianRate(st.done, elapsed)
	m.set("serve.readonly_queries_per_s", readOnly)
	if readOnly > 0 {
		m.set("serve.ingest_tax", 1-m.values["serve.queries_per_s"]/readOnly)
	}
	if st.issued > 0 {
		m.set("serve.alloc_b_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(st.issued))
	}

	// Closed-loop windows, no queries: the warm pipeline, then a cold twin
	// on the same deployment, with a registry and a store of its own.
	coldCfg := d.pipeConfig(false)
	coldCfg.Store = store.New(1024)
	cold, err := stream.New(d.sd, snapshot.NewRegistry(1), coldCfg)
	if err != nil {
		return err
	}
	for _, leg := range []struct {
		name string
		pipe *stream.Pipeline
	}{{"stream.step_warm_ms", d.pipe}, {"stream.step_cold_ms", cold}} {
		var lat []float64
		for end := time.Now().Add(budget / 4); time.Now().Before(end); {
			t0 := time.Now()
			if _, err := leg.pipe.Step(); err != nil {
				return err
			}
			lat = append(lat, ms(time.Since(t0)))
		}
		m.set(leg.name, median(lat))
	}
	return nil
}
