package serve

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/testutil"
)

// testServer builds an 8×8 field in 2×2 zones where cell (r,c) holds
// 10r+c, published as version 1.
func testServer(t *testing.T) (*Server, *snapshot.Registry) {
	t.Helper()
	reg := snapshot.NewRegistry(4)
	s, err := New(reg, 8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := field.New(8, 8)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			f.Set(r, c, float64(10*r+c))
		}
	}
	if _, err := reg.Publish(&snapshot.Snapshot{Step: 1, T: 1, Kind: sensor.Temperature, Field: f}); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func TestPointReadsLatestSnapshot(t *testing.T) {
	s, _ := testServer(t)
	got, err := s.Point(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 35 || got.Zone != 1 || got.Version != 1 {
		t.Fatalf("Point(3,5) = %+v", got)
	}
	if _, err := s.Point(8, 0); err == nil {
		t.Fatal("out-of-range point accepted")
	}
}

func TestQueriesBeforeFirstPublishReturnErrNoSnapshot(t *testing.T) {
	reg := snapshot.NewRegistry(1)
	s, err := New(reg, 8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Point(0, 0); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("Point = %v, want ErrNoSnapshot", err)
	}
	if _, err := s.Aggregate(0, AggSum, ""); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("Aggregate = %v, want ErrNoSnapshot", err)
	}
}

func TestRangePredicatePushdown(t *testing.T) {
	s, _ := testServer(t)
	res, err := s.Range(Rect{0, 0, 8, 8}, "value >= 70 && col < 4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 64 {
		t.Fatalf("scanned %d cells, want 64", res.Scanned)
	}
	if len(res.Cells) != 4 { // row 7, cols 0..3
		t.Fatalf("matched %d cells, want 4: %+v", len(res.Cells), res.Cells)
	}
	for _, c := range res.Cells {
		if c.Row != 7 || c.Col >= 4 || c.Zone != 2 {
			t.Fatalf("bad cell %+v", c)
		}
	}
	if _, err := s.Range(Rect{0, 0, 8, 8}, "value >"); err == nil {
		t.Fatal("bad filter accepted")
	}
	if _, err := s.Range(Rect{4, 4, 2, 2}, ""); err == nil {
		t.Fatal("inverted rectangle accepted")
	}
}

func TestAggregateOpsAndZones(t *testing.T) {
	s, _ := testServer(t)
	// Zone 3 covers rows 4..7 × cols 4..7.
	sum := 0.0
	for r := 4; r < 8; r++ {
		for c := 4; c < 8; c++ {
			sum += float64(10*r + c)
		}
	}
	for _, tc := range []struct {
		op   AggOp
		want float64
	}{
		{AggSum, sum}, {AggMean, sum / 16}, {AggMin, 44}, {AggMax, 77}, {AggCount, 16},
	} {
		got, err := s.Aggregate(3, tc.op, "")
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != tc.want || got.Cells != 16 {
			t.Fatalf("Aggregate(3,%s) = %+v, want value %v", tc.op, got, tc.want)
		}
	}
	whole, err := s.Aggregate(-1, AggCount, "zone == 0")
	if err != nil {
		t.Fatal(err)
	}
	if whole.Value != 16 {
		t.Fatalf("whole-field zone filter counted %v, want 16", whole.Value)
	}
	if _, err := s.Aggregate(4, AggSum, ""); err == nil {
		t.Fatal("unknown zone accepted")
	}
	if _, err := s.Aggregate(0, AggOp("median"), ""); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// The per-zone cache must serve repeats at the answered version and be
// invalidated by the next snapshot swap.
func TestAggregateCacheInvalidatedOnSwap(t *testing.T) {
	s, reg := testServer(t)
	first, err := s.Aggregate(0, AggSum, "")
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Aggregate(0, AggSum, "")
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("cached aggregate differs: %+v vs %+v", again, first)
	}
	f2 := field.New(8, 8)
	for i := range f2.Data {
		f2.Data[i] = 1
	}
	if _, err := reg.Publish(&snapshot.Snapshot{Step: 2, T: 2, Field: f2}); err != nil {
		t.Fatal(err)
	}
	after, err := s.Aggregate(0, AggSum, "")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != 2 || after.Value != 16 {
		t.Fatalf("post-swap aggregate = %+v, want version 2 value 16", after)
	}
}

// Concurrent queries racing concurrent publishes: every answer must be
// internally consistent (version matches the value read) — run under
// -race this also proves the read path touches no unsynchronized state.
func TestConcurrentQueriesDuringSwaps(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	reg := snapshot.NewRegistry(2)
	s, err := New(reg, 8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	mkVersion := func(v float64) *field.Field {
		f := field.New(8, 8)
		for i := range f.Data {
			f.Data[i] = v
		}
		return f
	}
	if _, err := reg.Publish(&snapshot.Snapshot{Step: 1, Field: mkVersion(1)}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // publisher: version v has all cells = v
		defer wg.Done()
		for v := 2; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := reg.Publish(&snapshot.Snapshot{Step: v, Field: mkVersion(float64(v))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				p, err := s.Point(i%8, (i/8)%8)
				if err != nil {
					t.Error(err)
					return
				}
				if p.Value != float64(p.Version) {
					t.Errorf("torn read: version %d value %v", p.Version, p.Value)
					return
				}
				a, err := s.Aggregate(i%4, AggMean, "")
				if err != nil {
					t.Error(err)
					return
				}
				if a.Value != float64(a.Version) {
					t.Errorf("stale cache served: version %d mean %v", a.Version, a.Value)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// Soak: the full stack — evolving truth, streaming pipeline, query load —
// runs for SOAK_DURATION (default a short smoke), with zero query errors,
// zero leaked goroutines, and a sane p99. CI runs this with
// SOAK_DURATION=10s.
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	defer testutil.CheckGoroutines(t)
	obs.Enable()
	dur := 400 * time.Millisecond
	if v := os.Getenv("SOAK_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad SOAK_DURATION %q: %v", v, err)
		}
		dur = d
	}
	sd, err := core.New(core.Options{
		FieldW: 16, FieldH: 16,
		ZoneRows: 2, ZoneCols: 2,
		NCsPerZone: 1, NodesPerNC: 5,
		Seed:    11,
		Timeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	evolve := func(step int, tm float64) *field.Field {
		return field.GenPlumes(16, 16, 10, []field.Plume{
			{Row: 5 + 0.05*tm, Col: 5, Sigma: 2.5, Amplitude: 25},
		})
	}
	if err := sd.SetTruth(evolve(0, 0)); err != nil {
		t.Fatal(err)
	}
	reg := snapshot.NewRegistry(4)
	p, err := stream.New(sd, reg, stream.Config{
		Budget: 60, Interval: 10 * time.Millisecond,
		WarmStart: true, Evolve: evolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(reg, 16, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := reg.WaitContext(ctx, 1); err != nil {
		t.Fatalf("pipeline never published: %v", err)
	}
	rep, err := RunLoad(ctx, s, LoadConfig{
		Workers: 4, Duration: dur, Seed: 3,
		Filters: []string{"value > 12", "zone == 1 && value < 30"},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Stop()
	t.Logf("soak: %s", rep)
	if rep.Errors != 0 {
		t.Fatalf("%d query errors under load", rep.Errors)
	}
	if rep.Queries == 0 {
		t.Fatal("load generator issued no queries")
	}
	if v := reg.Latest().Version; v < 2 {
		t.Fatalf("pipeline published only %d versions during soak", v)
	}
	// Latency budget: generous enough for shared CI machines, tight
	// enough to catch a lock sneaking onto the query path.
	if rep.Point.Count > 0 && rep.Point.P99 > 250 {
		t.Fatalf("point p99 = %.1fms, budget 250ms", rep.Point.P99)
	}
	if rep.Agg.Count > 0 && rep.Agg.P99 > 500 {
		t.Fatalf("aggregate p99 = %.1fms, budget 500ms", rep.Agg.P99)
	}
}

// The per-cell filter environment and typed evaluation path allocate
// nothing: boxing one value per cell would put ~4 heap objects on every
// scanned cell at full query load. Filtered aggregates with zero
// matches take the same loop without touching the result buffer, so the
// whole query is alloc-free after warm-up (cache insert aside).
func TestRangeFilterZeroAllocs(t *testing.T) {
	s, _ := testServer(t)
	f, err := s.compile("value >= 70 && col < 4")
	if err != nil {
		t.Fatal(err)
	}
	env := &cellEnv{}
	allocs := testing.AllocsPerRun(200, func() {
		env.v, env.r, env.c, env.zone = 71, 7, 1, 2
		ok, ferr := f.EvalWith(env)
		if ferr != nil || !ok {
			t.Fatalf("EvalWith: ok=%v err=%v", ok, ferr)
		}
	})
	if allocs != 0 {
		t.Fatalf("per-cell filter eval allocates %.1f per run, want 0", allocs)
	}
}

// TestQueryPathsAllocations pins at run time the allocation contract of
// the serving read path, three hot entry points (lint.HotEntryPoints): a
// point read and an aggregate cache hit allocate nothing, and a range
// query or an aggregate cache miss allocates per query, never per cell —
// a filter that matches nothing costs the same over one cell as over the
// whole field.
func TestQueryPathsAllocations(t *testing.T) {
	s, _ := testServer(t)
	allocs := func(query func() error) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := query(); err != nil {
				t.Fatal(err)
			}
		})
	}
	point := allocs(func() error { _, err := s.Point(3, 5); return err })
	hit := allocs(func() error { _, err := s.Aggregate(2, AggMean, "value >= 70"); return err })
	if point != 0 || hit != 0 {
		t.Errorf("Point: %.1f allocs, Aggregate cache hit: %.1f, want 0 and 0", point, hit)
	}

	const none = "value < 0"
	rangeOne := allocs(func() error { _, err := s.Range(Rect{3, 5, 4, 6}, none); return err })
	rangeAll := allocs(func() error { _, err := s.Range(Rect{0, 0, 8, 8}, none); return err })
	if rangeAll != rangeOne {
		t.Errorf("Range matching nothing: %.1f allocs over 1 cell, %.1f over 64, want equal", rangeOne, rangeAll)
	}

	// Zone -1, the whole field, is never cached: every call is a miss.
	reg := snapshot.NewRegistry(1)
	one, err := New(reg, 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(&snapshot.Snapshot{Step: 1, T: 1, Kind: sensor.Temperature, Field: field.New(1, 1)}); err != nil {
		t.Fatal(err)
	}
	missOne := allocs(func() error { _, err := one.Aggregate(-1, AggSum, none); return err })
	missAll := allocs(func() error { _, err := s.Aggregate(-1, AggSum, none); return err })
	if missAll != missOne {
		t.Errorf("Aggregate cache miss matching nothing: %.1f allocs over 1 cell, %.1f over 64, want equal", missOne, missAll)
	}
}

// Aggregate caching still round-trips through the struct key: a repeated
// (op, filter) query on the same version is a cache hit with an
// identical result.
func TestAggregateCacheStructKey(t *testing.T) {
	s, _ := testServer(t)
	first, err := s.Aggregate(2, AggMean, "value >= 70")
	if err != nil {
		t.Fatal(err)
	}
	cache := s.caches[2].Load()
	if cache == nil {
		t.Fatal("no cache after aggregate")
	}
	if _, ok := cache.entries[aggKey{op: AggMean, src: "value >= 70"}]; !ok {
		t.Fatalf("cache missing struct key, has %d entries", len(cache.entries))
	}
	again, err := s.Aggregate(2, AggMean, "value >= 70")
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("cache hit differs: %+v vs %+v", first, again)
	}
}
