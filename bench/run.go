package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/basis"
	"repro/internal/cs"
)

// runConfig sizes one run. The command line fixes everything but the
// seed and the measured seconds; the smoke test shrinks the rest.
type runConfig struct {
	seed      int64
	seconds   time.Duration // the measured phase
	warmup    time.Duration // untimed ops before it
	setupReps int           // set-ups timed for setup_s; 0 takes the workload's own count
	outDir    string        // where trace files go; "" writes none
}

// runResult is one run of one workload, as the result line and the run
// file carry it.
type runResult struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"` // first few failures, for the reader

	// measured holds the metrics the run took a value for; the rest of
	// Metrics are the zeros of layers that are not on this workload's path.
	measured map[string]float64
}

// run is the accounting of one deployment's ops from its first on.
type run struct {
	w    workload
	d    deployment
	done int // ops so far; the set-up op is op 0

	// nmse and transport bytes of ops 1..w.nmseOps: a fixed set of ops, so
	// their means depend on the seed and not on how fast the box was.
	nmse, bytes []float64
	worstNMSE   float64 // highest nmse of any op that passed the ceiling check

	attempted, failed int
	errs              []string
}

func (r *run) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// record books one op's outcome and applies the per-op accuracy check.
func (r *run) record(out opOut, err error) {
	i := r.done
	r.done++
	r.attempted++
	switch {
	case err != nil:
		r.fail(fmt.Errorf("op %d: %w", i, err))
		return
	case !(out.nmse <= r.w.nmseCeil): // also catches NaN
		r.fail(fmt.Errorf("op %d: nmse %.4g above the workload's ceiling %g", i, out.nmse, r.w.nmseCeil))
		return
	}
	r.worstNMSE = max(r.worstNMSE, out.nmse)
	if i >= 1 && i <= r.w.nmseOps {
		r.nmse = append(r.nmse, out.nmse)
		r.bytes = append(r.bytes, float64(out.bytes))
	}
}

// setUp builds the deployment around the inputs and runs its first op,
// from cold caches. It returns how long that took.
func (r *run) setUp(in *inputs) (time.Duration, error) {
	basis.ResetCache()
	cs.ResetSensingCache()
	runtime.GC()
	t0 := time.Now()
	d, err := r.w.build(in)
	if err != nil {
		return 0, err
	}
	r.d = d
	out, err := d.op()
	took := time.Since(t0)
	r.record(out, err)
	return took, nil
}

// querier is a deployment that serves reads beside its ops.
type querier interface {
	runQueries(stop *atomic.Bool, start time.Time, st *queryStats)
	// bookMixed enters what a phase of ops with reads beside them showed;
	// quiet is a phase of the same ops with no reads.
	bookMixed(m *metricSet, mixed, quiet *phaseStats, dur time.Duration)
}

// phaseStats is what one phase of ops measured.
type phaseStats struct {
	ops     []interval // each op's completion: from the previous op's end to its own
	lat     []float64  // op latency in ms; open loop: from the due instant
	lag     []float64  // open loop: how late each op started, ms
	late    int        // open loop: ops that started more than an interval late
	backlog int        // open loop: most ops due and not yet started
	queries queryStats
	mem     memDelta
}

// memDelta is the allocator's and collector's work over a phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapSys    uint64
}

func memSince(before *runtime.MemStats) memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		allocBytes: now.TotalAlloc - before.TotalAlloc,
		gcCycles:   now.NumGC - before.NumGC,
		gcPause:    time.Duration(now.PauseTotalNs - before.PauseTotalNs),
		heapSys:    now.HeapSys,
	}
}

// phase runs ops for dur and books each. A closed-loop workload issues
// the next op when the last returns; an open-loop one issues op k at
// k·interval or as soon after as the previous op allows, and times it
// from when it was due, so a stall is charged to every op it delayed.
// With queries set, a querier's reads run beside the ops throughout.
func (r *run) phase(dur time.Duration, queries bool, do func() (opOut, error)) phaseStats {
	var (
		ps      phaseStats
		before  runtime.MemStats
		stop    atomic.Bool
		joined  = make(chan struct{})
		q, isQ  = r.d.(querier)
		every   = r.w.interval
		started = 0
		lastEnd time.Duration
	)
	runtime.ReadMemStats(&before)
	start := time.Now()
	if queries && isQ {
		go func() {
			defer close(joined)
			q.runQueries(&stop, start, &ps.queries)
		}()
	} else {
		close(joined)
	}
	for {
		now := time.Since(start)
		due := now
		if every > 0 {
			due = time.Duration(started) * every
			if due < now {
				ps.backlog = max(ps.backlog, int((now-due)/every))
			} else if due < dur {
				time.Sleep(due - now)
				now = time.Since(start)
			}
		}
		if due >= dur {
			break
		}
		started++
		out, err := do()
		end := time.Since(start)
		r.record(out, err)
		// Throughput counts completions: an op's unit of work is spread over
		// the time since the previous completion. In a closed loop that is
		// the op's own duration; in an open loop it includes the idle wait,
		// so a sustainable cadence reads as its rate and not as 1/latency.
		ps.ops = append(ps.ops, interval{lastEnd, end, 1})
		lastEnd = end
		ps.lat = append(ps.lat, ms(end-due))
		if every > 0 {
			ps.lag = append(ps.lag, ms(now-due))
			if now-due > every {
				ps.late++
			}
		}
	}
	stop.Store(true)
	<-joined
	ps.mem = memSince(&before)
	r.attempted += ps.queries.issued
	if ps.queries.failed > 0 {
		r.failed += ps.queries.failed
		r.errs = append(r.errs, fmt.Sprintf("%d queries failed, first: %v", ps.queries.failed, ps.queries.firstEr))
	}
	return ps
}

func (r *run) result(trace int, m *metricSet) runResult {
	if bad := m.invalid(trace == 0); len(bad) > 0 {
		r.errs = append(r.errs, fmt.Sprintf("metrics without a reportable value: %v", bad))
	}
	return runResult{
		Workload: r.w.name, Trace: trace,
		Correct:   r.failed == 0 && len(r.errs) == 0,
		Attempted: r.attempted, Failed: r.failed,
		Metrics: m.result(), Errors: r.errs, measured: m.values,
	}
}

const mb = 1 << 20

// runUntraced measures a workload's end-to-end metrics: several timed
// set-ups, a warm-up, then the measured phase, all with no span recorded
// and internal/obs left off.
func runUntraced(w workload, cfg runConfig, spec *benchSpec) (runResult, error) {
	r := &run{w: w}
	m := newMetricSet(spec.EndToEnd)
	in := w.inputs(rand.New(rand.NewSource(cfg.seed)))
	reps := cfg.setupReps
	if reps == 0 {
		reps = w.setupReps
	}
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if r.d != nil {
			r.d.close()
			r.done, r.nmse, r.bytes = 0, nil, nil // the next deployment's ops count from 0 again
		}
		took, err := r.setUp(in)
		if err != nil {
			return runResult{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer r.d.close()

	warm := r.phase(cfg.warmup, false, r.d.op)
	ps := r.phase(cfg.seconds, true, r.d.op)

	m.set("setup_s", median(setups))
	m.set("ops_per_s", bucketMedianRate(ps.ops, cfg.seconds))
	m.set("op_p50_ms", median(ps.lat))
	m.set("nmse", mean(r.nmse))
	m.set("transport_bytes_per_op", mean(r.bytes))
	alloc := &ps
	if _, serves := r.d.(querier); serves {
		// Reads allocate too, and how many there are depends on the box, so
		// the ingest path's allocation is read off the query-free warm-up.
		alloc = &warm
	}
	m.set("alloc_mb_per_op", float64(alloc.mem.allocBytes)/mb/float64(max(len(alloc.ops), 1)))
	return r.result(0, m), nil
}

// runTraced fills the per-layer ledger: a short untraced phase for the
// run-level entries, the staged pass under spans, the workload's own
// extra measurements, and the layer micro-probes.
func runTraced(w workload, cfg runConfig, spec *benchSpec) (runResult, error) {
	r := &run{w: w}
	m := newMetricSet(spec.PerLayer)
	if _, err := r.setUp(w.inputs(rand.New(rand.NewSource(cfg.seed)))); err != nil {
		return runResult{}, err
	}
	defer r.d.close()

	warm := r.phase(cfg.warmup, false, r.d.op)
	ps := r.phase(cfg.seconds/4, true, r.d.op)
	p50 := median(ps.lat)
	m.set("run.op_samples", float64(len(ps.lat)))
	m.set("run.op_p95_ms", quantile(ps.lat, 0.95))
	if pct, ok := tailPercent(len(ps.lat)); ok {
		m.set("run.op_tail_pct", pct)
		m.set("run.op_tail_ms", quantile(ps.lat, pct/100))
	}
	m.set("runtime.gc_cycles", float64(ps.mem.gcCycles))
	m.set("runtime.gc_pause_ms", ms(ps.mem.gcPause))
	m.set("runtime.heap_peak_mb", float64(ps.mem.heapSys)/mb)
	if q, serves := r.d.(querier); serves {
		q.bookMixed(m, &ps, &warm, cfg.seconds/4)
	}

	// Staged pass: the op one stage at a time, alternately with spans and
	// without, so the cost of recording is the difference between two
	// runs of the same code.
	tr := newTracer()
	seen := counts{}
	var traced, bare []float64
	staged := 0
	r.phase(cfg.seconds/4, false, func() (opOut, error) {
		use := tr
		if staged%2 == 1 {
			use = nil
		}
		staged++
		t0 := time.Now()
		out, err := r.d.staged(use, seen)
		if use == nil {
			bare = append(bare, ms(time.Since(t0)))
		} else {
			traced = append(traced, ms(time.Since(t0)))
		}
		return out, err
	})
	l := ledgerOf(tr.spans)
	r.d.book(m, l, seen.perOp(staged))
	m.set("trace.coverage", l.coverage)
	if l.coverage < 0.95 {
		r.errs = append(r.errs, fmt.Sprintf("trace.coverage %.3f: the spans leave more than 5%% of the op unaccounted", l.coverage))
	}
	if len(bare) > 0 && p50 > 0 {
		m.set("trace.staged_over_e2e", median(bare)/p50)
		m.set("trace.overhead_frac", (median(traced)-median(bare))/median(bare))
	}

	if err := r.d.extras(m, cfg.seconds/5); err != nil {
		r.fail(err)
	}
	if err := runProbes(cfg.seconds*3/10, rand.New(rand.NewSource(cfg.seed)), m); err != nil {
		r.fail(err)
	}
	m.set("run.failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	m.set("run.nmse_max", r.worstNMSE)
	if cfg.outDir != "" {
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return runResult{}, err
		}
	}
	return r.result(1, m), nil
}
