package sensedroid

// One benchmark per evaluation artifact (figures F1–F6, claims C1–C6,
// ablations A1–A3 — see DESIGN.md §3). Each bench regenerates its
// figure/claim through the same code path as `cmd/experiments`, at a
// configuration scaled so a single iteration is bench-friendly; the
// full-scale series are produced by `go run ./cmd/experiments all`.

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/basis"
	"repro/internal/cs"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/fleet"
)

func benchTable(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig1HierarchyScalability(b *testing.B) {
	cfg := experiments.Fig1Config{NodeCounts: []int{256}, LCs: 4, NCsPerLC: 4, Seed: 1}
	benchTable(b, func() (*experiments.Table, error) { return experiments.Fig1(cfg) })
}

func BenchmarkFig2NanoCloudRoundTrip(b *testing.B) {
	cfg := experiments.Fig2Config{Nodes: 16, M: 32, Seed: 2}
	benchTable(b, func() (*experiments.Table, error) { return experiments.Fig2(cfg) })
}

func BenchmarkFig3VirtualSensorFusion(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.Fig3(3) })
}

func BenchmarkFig4ReconstructionVsM(b *testing.B) {
	cfg := experiments.Fig4Config{N: 256, Ms: []int{16, 30, 64}, K: 8, Trials: 2, Seed: 4}
	benchTable(b, func() (*experiments.Table, error) { return experiments.Fig4(cfg) })
}

func BenchmarkFig5AdaptiveZones(b *testing.B) {
	cfg := experiments.Fig5Config{FieldW: 32, FieldH: 32, ZoneRows: 4, ZoneCols: 4,
		NodesPerNC: 3, TotalM: 160, Trials: 1, Seed: 5}
	benchTable(b, func() (*experiments.Table, error) { return experiments.Fig5(cfg) })
}

func BenchmarkFig6CHSAlgorithm(b *testing.B) {
	cfg := experiments.Fig6Config{N: 128, M: 40, K: 6, Trials: 2, Seed: 6}
	benchTable(b, func() (*experiments.Table, error) { return experiments.Fig6(cfg) })
}

func BenchmarkC1TransmissionScaling(b *testing.B) {
	cfg := experiments.C1Config{NodeCounts: []int{128, 256}, K: 8, Seed: 11}
	benchTable(b, func() (*experiments.Table, error) { return experiments.C1(cfg) })
}

func BenchmarkC2MeasurementBound(b *testing.B) {
	cfg := experiments.C2Config{Ns: []int{128, 256}, Ks: []int{5}, Trials: 3, Seed: 12}
	benchTable(b, func() (*experiments.Table, error) { return experiments.C2(cfg) })
}

func BenchmarkC3EnergySavings(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.C3(experiments.DefaultC3()) })
}

func BenchmarkC4IsIndoor(b *testing.B) {
	cfg := experiments.C4Config{Windows: 4, WindowLen: 64, M: 16, Seed: 14}
	benchTable(b, func() (*experiments.Table, error) { return experiments.C4(cfg) })
}

func BenchmarkC5IsDriving(b *testing.B) {
	cfg := experiments.C5Config{Ms: []int{30}, Trials: 3, Seed: 15}
	benchTable(b, func() (*experiments.Table, error) { return experiments.C5(cfg) })
}

func BenchmarkC6Incentives(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.C6(experiments.DefaultC6()) })
}

func BenchmarkA1BasisChoice(b *testing.B) {
	cfg := experiments.A1Config{W: 16, H: 16, M: 48, K: 10, PriorT: 30, Trials: 2, Seed: 21}
	benchTable(b, func() (*experiments.Table, error) { return experiments.A1(cfg) })
}

func BenchmarkA2OptimalK(b *testing.B) {
	cfg := experiments.A2Config{N: 128, M: 36, Ks: []int{2, 4, 16}, Noise: 0.05, Trials: 5, Seed: 22}
	benchTable(b, func() (*experiments.Table, error) { return experiments.A2(cfg) })
}

func BenchmarkA3Criticality(b *testing.B) {
	cfg := experiments.A3Config{TotalM: 120, Crit: 4, Trials: 1, Seed: 23}
	benchTable(b, func() (*experiments.Table, error) { return experiments.A3(cfg) })
}

// BenchmarkEndToEndCampaign times one full hierarchical sensing round
// through the public API — the middleware's steady-state unit of work.
func BenchmarkEndToEndCampaign(b *testing.B) {
	sd, err := New(Options{
		FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2,
		NCsPerZone: 1, NodesPerNC: 4, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sd.Close()
	truth := GenPlumes(32, 32, 12, []Plume{{Row: 10, Col: 20, Sigma: 3, Amplitude: 30}})
	if err := sd.SetTruth(truth); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sd.RunCampaign(CampaignConfig{TotalM: 120}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA4DecoderComparison(b *testing.B) {
	cfg := experiments.A4Config{N: 64, M: 28, K: 4, Noise: 0.02, Trials: 2, Seed: 24}
	benchTable(b, func() (*experiments.Table, error) { return experiments.A4(cfg) })
}

func BenchmarkA5SpatioTemporal(b *testing.B) {
	cfg := experiments.A5Config{W: 10, H: 10, Steps: 6, Ms: []int{16}, Drift: 0.15, Seed: 25}
	benchTable(b, func() (*experiments.Table, error) { return experiments.A5(cfg) })
}

func BenchmarkA6AdaptiveSampling(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.A6(experiments.DefaultA6()) })
}

func BenchmarkC7RadioSelection(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.C7(experiments.DefaultC7()) })
}

func BenchmarkC8Coverage(b *testing.B) {
	cfg := experiments.C8Config{GridW: 8, GridH: 8, Nodes: 4, DurationS: 600, StepS: 5, Seed: 28}
	benchTable(b, func() (*experiments.Table, error) { return experiments.C8(cfg) })
}

func BenchmarkC9Opportunistic(b *testing.B) {
	cfg := experiments.C9Config{AreaM: 200, Radius: 20, Rounds: 5, Crowds: []int{60}, Seed: 29}
	benchTable(b, func() (*experiments.Table, error) { return experiments.C9(cfg) })
}

// --- 2-D field decode through matrix-free operators --------------------------

// gridProblem builds one deterministic w×h plume-field decode problem.
func gridProblem(b *testing.B, w, h, m int) (*field.Field, []int, []float64) {
	b.Helper()
	truth := field.GenPlumes(w, h, 10, []field.Plume{
		{Row: 0.3 * float64(h), Col: 0.6 * float64(w), Sigma: float64(w) / 12, Amplitude: 30},
		{Row: 0.7 * float64(h), Col: 0.2 * float64(w), Sigma: float64(w) / 16, Amplitude: 18},
	})
	rng := rand.New(rand.NewSource(77))
	locs, err := cs.RandomLocations(rng, truth.N(), m)
	if err != nil {
		b.Fatal(err)
	}
	y, err := cs.Measure(truth.Vector(), locs, rng, nil)
	if err != nil {
		b.Fatal(err)
	}
	return truth, locs, y
}

// BenchmarkDecode64GridOperator decodes a 64×64 field through the
// separable fast-DCT operator. DESIGN.md §9 keeps the last recorded
// comparison with the dense 4096×4096 Kronecker matrix.
func BenchmarkDecode64GridOperator(b *testing.B) {
	truth, locs, y := gridProblem(b, 64, 64, 400)
	op, err := truth.Operator2D(basis.KindDCT)
	if err != nil {
		b.Fatal(err)
	}
	opts := cs.CHSOptions{MaxSupport: 32, PerIter: 2, Tol: 1e-6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.CHSOp(op, locs, y, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fleet backend: struct-of-arrays population at scale ---------------------

// fleetBench runs one full fleet campaign per iteration: population
// construction, Rounds duty rounds of tick/report/batched-netsim
// traffic, and the per-zone decode. Construction is inside the timed
// loop deliberately — a campaign mutates the population (energy,
// mobility), so each iteration must start from the same seeded state,
// and standing up the shards is part of the unit of work being claimed.
func fleetBench(b *testing.B, nodes, shardSize, fieldDim, zoneRC, budget, maxSupport int) {
	b.Helper()
	truth := field.GenPlumes(fieldDim, fieldDim, 10, []field.Plume{
		{Row: 0.3 * float64(fieldDim), Col: 0.6 * float64(fieldDim), Sigma: float64(fieldDim) / 12, Amplitude: 30},
		{Row: 0.7 * float64(fieldDim), Col: 0.2 * float64(fieldDim), Sigma: float64(fieldDim) / 16, Amplitude: 18},
	})
	b.ReportAllocs()
	b.ResetTimer()
	var nmse float64
	for i := 0; i < b.N; i++ {
		p, err := fleet.NewPopulation(fleet.Config{
			Nodes: nodes, ShardSize: shardSize,
			FieldW: fieldDim, FieldH: fieldDim,
			ZoneRows: zoneRC, ZoneCols: zoneRC, Seed: 61,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.SetTruth(truth); err != nil {
			b.Fatal(err)
		}
		r, err := fleet.NewRunner(p, 62, budget)
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run(fleet.CampaignConfig{MaxSupport: maxSupport})
		if err != nil {
			b.Fatal(err)
		}
		if res.GlobalNMSE > 1 {
			b.Fatalf("reconstruction collapsed: NMSE %v", res.GlobalNMSE)
		}
		nmse = res.GlobalNMSE
	}
	b.ReportMetric(nmse, "nmse")
}

// BenchmarkFleetCampaign100k is the always-on fleet datum: 10^5 nodes,
// 128×128 field, 4 zones. CI's bench smoke runs it at -benchtime=1x.
func BenchmarkFleetCampaign100k(b *testing.B) {
	fleetBench(b, 100_000, 8192, 128, 2, 256, 32)
}

// BenchmarkMillionNodeCampaign is the headline scale point: 10^6 nodes
// across 16 zones of a 256×256 field, a full duty cycle of batched
// measurement traffic, and 16 parallel zone decodes. It runs only when
// FLEET_BENCH_FULL=1 (set by hand) so the CI bench smoke, which executes
// every benchmark once, stays fast.
func BenchmarkMillionNodeCampaign(b *testing.B) {
	if os.Getenv("FLEET_BENCH_FULL") == "" {
		b.Skip("set FLEET_BENCH_FULL=1 to run the 10^6-node campaign")
	}
	fleetBench(b, 1_000_000, 8192, 256, 4, 1024, 64)
}

// BenchmarkDecode1024Grid decodes a 1024×1024 field (n = 2^20). The dense
// sensing matrix for this grid would need ~8 TB; it exists only on the
// operator path. Run with -benchtime=1x — one decode is the datum.
func BenchmarkDecode1024Grid(b *testing.B) {
	truth, locs, y := gridProblem(b, 1024, 1024, 3000)
	op, err := truth.Operator2D(basis.KindDCT)
	if err != nil {
		b.Fatal(err)
	}
	opts := cs.CHSOptions{MaxSupport: 16, PerIter: 4, Tol: 1e-6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.CHSOp(op, locs, y, opts); err != nil {
			b.Fatal(err)
		}
	}
}
