package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// LoadConfig shapes a synthetic query workload: Workers concurrent
// clients issuing for Duration a mix of 70 % Point, 20 % Range (edges of
// at most rangeSpan cells) and 10 % Aggregate queries. Filters, when
// non-empty, is sampled uniformly for range/aggregate predicates.
type LoadConfig struct {
	Workers  int
	Duration time.Duration
	Filters  []string
	Seed     int64
}

// rangeSpan is the largest rectangle edge a load Range query asks for.
const rangeSpan = 8

// LoadReport summarizes a load run. Latency quantiles come from the
// serve histograms, so they cover exactly the queries this process
// issued since obs was last reset.
type LoadReport struct {
	Queries  int64
	Errors   int64
	Duration time.Duration
	QPS      float64
	Point    obs.HistSnapshot
	Range    obs.HistSnapshot
	Agg      obs.HistSnapshot
}

// String renders the report for terminals and logs.
func (r LoadReport) String() string {
	return fmt.Sprintf(
		"queries=%d errors=%d elapsed=%v qps=%.0f\n"+
			"point ms: p50=%.3f p95=%.3f p99=%.3f (n=%d)\n"+
			"range ms: p50=%.3f p95=%.3f p99=%.3f (n=%d)\n"+
			"agg   ms: p50=%.3f p95=%.3f p99=%.3f (n=%d)",
		r.Queries, r.Errors, r.Duration.Round(time.Millisecond), r.QPS,
		r.Point.P50, r.Point.P95, r.Point.P99, r.Point.Count,
		r.Range.P50, r.Range.P95, r.Range.P99, r.Range.Count,
		r.Agg.P50, r.Agg.P95, r.Agg.P99, r.Agg.Count)
}

// RunLoad drives a sustained mixed query workload against the server and
// reports throughput and latency quantiles. Each worker owns a seeded
// RNG, so a fixed seed fixes the exact query sequence per worker (the
// interleaving is scheduler-dependent, as real load is).
func RunLoad(ctx context.Context, s *Server, cfg LoadConfig) (LoadReport, error) {
	if s == nil {
		return LoadReport{}, errors.New("serve: nil server")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	lctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	counts := make([]int64, cfg.Workers)
	errs := make([]int64, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) { // exits when lctx expires
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			zones := s.zoneRows * s.zoneCols
			ops := []AggOp{AggSum, AggMean, AggMin, AggMax, AggCount}
			for lctx.Err() == nil {
				var err error
				switch u := rng.Float64(); {
				case u < 0.7:
					_, err = s.Point(rng.Intn(s.fieldH), rng.Intn(s.fieldW))
				case u < 0.9:
					r0 := rng.Intn(s.fieldH)
					c0 := rng.Intn(s.fieldW)
					r1 := min(s.fieldH, r0+1+rng.Intn(rangeSpan))
					c1 := min(s.fieldW, c0+1+rng.Intn(rangeSpan))
					_, err = s.Range(Rect{r0, c0, r1, c1}, pickFilter(rng, cfg.Filters))
				default:
					_, err = s.Aggregate(rng.Intn(zones+1)-1, ops[rng.Intn(len(ops))], pickFilter(rng, cfg.Filters))
				}
				counts[w]++
				if err != nil {
					errs[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	rep := LoadReport{
		Duration: time.Since(start),
		Point:    obsPointMs.Snapshot(),
		Range:    obsRangeMs.Snapshot(),
		Agg:      obsAggMs.Snapshot(),
	}
	for w := range counts {
		rep.Queries += counts[w]
		rep.Errors += errs[w]
	}
	rep.QPS = float64(rep.Queries) / rep.Duration.Seconds()
	return rep, nil
}

// pickFilter samples one predicate source (empty = unfiltered) from the
// configured pool.
func pickFilter(rng *rand.Rand, filters []string) string {
	if len(filters) == 0 {
		return ""
	}
	return filters[rng.Intn(len(filters))]
}
