package experiments

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/field"
)

// --- A1: basis choice with prior data ---------------------------------------------------

// A1Config sizes the basis-choice ablation.
type A1Config struct {
	W, H   int // zone grid (H must be a power of two for Haar)
	M      int
	K      int
	PriorT int // historical traces to learn from
	Trials int
	Seed   int64
}

// DefaultA1 returns the paper-scale configuration.
func DefaultA1() A1Config {
	return A1Config{W: 16, H: 16, M: 56, K: 12, PriorT: 60, Trials: 5, Seed: 21}
}

// A1 tests the paper's "ability to use different basis and sensing matrix
// by exploiting prior available data of different regions": on a field
// process with history, a PCA basis learned from prior traces should beat
// the generic DCT and Haar bases at equal measurement budget.
func A1(cfg A1Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(rng *rand.Rand) *field.Field {
		f := field.GenPlumes(cfg.W, cfg.H, 5, []field.Plume{
			{Row: 4 + 2*rng.NormFloat64(), Col: 10 + 2*rng.NormFloat64(),
				Sigma: 2.5 + 0.3*rng.NormFloat64(), Amplitude: 25 + 5*rng.NormFloat64()},
			{Row: 12 + rng.NormFloat64(), Col: 4 + rng.NormFloat64(),
				Sigma: 2 + 0.2*rng.NormFloat64(), Amplitude: 15 + 3*rng.NormFloat64()},
		})
		return f
	}
	traces, err := field.CollectTraces(cfg.W, cfg.H, cfg.PriorT, func(int) *field.Field { return gen(rng) })
	if err != nil {
		return nil, err
	}
	learned, _, err := traces.LearnBasis()
	if err != nil {
		return nil, err
	}
	mu := traces.Mean()
	proto := field.New(cfg.W, cfg.H)
	dct, err := proto.Operator2D(basis.KindDCT)
	if err != nil {
		return nil, err
	}
	haar, err := proto.Operator2D(basis.KindHaar)
	if err != nil {
		return nil, err
	}
	// The learned PCA basis has no fast transform; FromMatrix serves its
	// rows and entries to the decoders straight from the matrix.
	learnedOp, err := basis.FromMatrix(learned)
	if err != nil {
		return nil, err
	}
	bases := []struct {
		name string
		phi  basis.Operator
	}{{"dct", dct}, {"haar", haar}, {"learned-pca", learnedOp}}

	t := &Table{
		ID:     "A1",
		Title:  "Basis choice at equal budget: generic vs learned from prior traces",
		Header: []string{"basis", "mean-NMSE", "mean-accuracy"},
	}
	nmse := make([][]float64, cfg.Trials)
	acc := make([][]float64, cfg.Trials)
	err = forEachTrial(cfg.Trials, subSeed(cfg.Seed, 1), func(trial int, rng *rand.Rand) error {
		nmse[trial] = make([]float64, len(bases))
		acc[trial] = make([]float64, len(bases))
		truth := gen(rng)
		locs, err := cs.RandomLocations(rng, truth.N(), cfg.M)
		if err != nil {
			return err
		}
		y, err := cs.Measure(truth.Vector(), locs, rng, []float64{0.1})
		if err != nil {
			return err
		}
		for i, bs := range bases {
			var res *cs.Result
			var err error
			if bs.name == "learned-pca" {
				// PCA eigenvectors span variation around the trace mean, so
				// decode the readings less μ and add μ back to x̂ (the
				// broker knows μ from its prior).
				yc := make([]float64, len(y))
				for i, l := range locs {
					yc[i] = y[i] - mu[l]
				}
				if res, err = cs.OMPOp(bs.phi, locs, yc, cfg.K, 1e-9); err == nil {
					for i := range res.Xhat {
						res.Xhat[i] += mu[i]
					}
				}
			} else {
				res, err = cs.OMPOp(bs.phi, locs, y, cfg.K, 1e-9)
			}
			if err != nil {
				return err
			}
			nmse[trial][i] = cs.NMSE(truth.Vector(), res.Xhat)
			acc[trial][i] = cs.Accuracy(truth.Vector(), res.Xhat)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nmseSums := make([]float64, len(bases))
	accSums := make([]float64, len(bases))
	for trial := 0; trial < cfg.Trials; trial++ {
		for i := range bases {
			nmseSums[i] += nmse[trial][i]
			accSums[i] += acc[trial][i]
		}
	}
	for i, bs := range bases {
		recordNMSE("a1", bs.name, nmseSums[i]/float64(cfg.Trials))
		t.AddRow(bs.name, f(nmseSums[i]/float64(cfg.Trials)), f(accSums[i]/float64(cfg.Trials)))
	}
	t.AddNote("field process: two wandering plumes; PCA basis learned from %d prior traces; M=%d, K=%d", cfg.PriorT, cfg.M, cfg.K)
	return t, nil
}

// --- A2: optimal K (ε_a vs ε_c) -----------------------------------------------------------

// A2Config sizes the K-sweep ablation.
type A2Config struct {
	N, M   int
	Ks     []int
	Noise  float64
	Trials int
	Seed   int64
}

// DefaultA2 returns the paper-scale configuration.
func DefaultA2() A2Config {
	return A2Config{N: 256, M: 40, Ks: []int{2, 4, 8, 12, 16, 24, 32, 38}, Noise: 0.05, Trials: 25, Seed: 22}
}

// A2 reproduces the paper's §4 argument that total error is U-shaped in
// K: "increasing K will in general increase the reconstruction error ε_c
// (worse conditioning) and decrease the approximation error ε_a (better
// approximation). Therefore, we should pick an optimal K such that the sum
// ε is minimal." The workload is compressible (not exactly sparse) with
// measurement noise, so both effects are active.
func A2(cfg A2Config) (*Table, error) {
	phi := basis.CachedDCT(cfg.N)
	op, err := basis.CachedOperator(basis.KindDCT, cfg.N)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "A2",
		Title:  "Total error vs sparsity budget K at fixed M (U-shape)",
		Header: []string{"K", "median-NMSE", "mean-cond"},
	}
	type point struct {
		k    int
		nmse float64
	}
	var curve []point
	for _, k := range cfg.Ks {
		if k >= cfg.M {
			continue
		}
		nmses := make([]float64, cfg.Trials)
		conds := make([]float64, cfg.Trials)
		err := forEachTrial(cfg.Trials, subSeed(cfg.Seed, int64(k)), func(trial int, rng *rand.Rand) error {
			// Compressible signal: power-law decaying DCT spectrum.
			alpha := make([]float64, cfg.N)
			perm := rng.Perm(cfg.N)
			for rank := 0; rank < cfg.N; rank++ {
				alpha[perm[rank]] = 5 * math.Pow(float64(rank+1), -1.0) * (1 + 0.2*rng.NormFloat64())
			}
			x, err := basis.Synthesize(phi, alpha)
			if err != nil {
				return err
			}
			locs, err := cs.RandomLocations(rng, cfg.N, cfg.M)
			if err != nil {
				return err
			}
			y, err := cs.Measure(x, locs, rng, []float64{cfg.Noise})
			if err != nil {
				return err
			}
			res, err := cs.OMPOp(op, locs, y, k, 0)
			if err != nil {
				return err
			}
			nmses[trial] = cs.NMSE(x, res.Xhat)
			bd, err := cs.Diagnose(op, x, locs, res, []float64{cfg.Noise})
			if err != nil {
				return err
			}
			if !math.IsInf(bd.Condition, 1) {
				conds[trial] = bd.Condition
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		condSum := 0.0
		for _, c := range conds {
			condSum += c
		}
		// Median is robust to the occasional catastrophic OMP miss, which
		// would otherwise swamp the U-shape.
		sort.Float64s(nmses)
		med := nmses[len(nmses)/2]
		t.AddRow(d(k), f(med), f2(condSum/float64(cfg.Trials)))
		curve = append(curve, point{k, med})
	}
	// Locate the empirical optimum for the note.
	sort.Slice(curve, func(i, j int) bool { return curve[i].nmse < curve[j].nmse })
	if len(curve) > 0 {
		t.AddNote("empirical optimal K = %d at M=%d (noise sigma %.2f): error falls (ε_a) then rises (ε_c/overfit)",
			curve[0].k, cfg.M, cfg.Noise)
	}
	return t, nil
}

// --- A3: criticality-directed budgets --------------------------------------------------------

// A3Config sizes the criticality ablation.
type A3Config struct {
	TotalM int
	Crit   float64
	Trials int
	Seed   int64
}

// DefaultA3 returns the paper-scale configuration.
func DefaultA3() A3Config { return A3Config{TotalM: 140, Crit: 4, Trials: 3, Seed: 23} }

// A3 tests the paper's "ability to analyze a region with more emphasis
// based on criticality": raising one zone's criticality shifts budget
// there and lowers that zone's reconstruction error relative to a uniform
// plan, at equal total budget.
func A3(cfg A3Config) (*Table, error) {
	t := &Table{
		ID:     "A3",
		Title:  "Criticality-directed measurement budgets (equal total budget)",
		Header: []string{"trial", "crit-zone-M(uni)", "crit-zone-M(crit)", "crit-NMSE(uni)", "crit-NMSE(crit)"},
	}
	const critZone = 3 // bottom-right of a 2x2 partition
	type outcome struct {
		uniM, critM       int
		uniNMSE, critNMSE float64
	}
	outs := make([]outcome, cfg.Trials)
	err := forEach(cfg.Trials, func(trial int) error {
		sd, err := core.New(core.Options{
			FieldW: 32, FieldH: 32, ZoneRows: 2, ZoneCols: 2,
			NCsPerZone: 1, NodesPerNC: 4, Seed: cfg.Seed + int64(trial)*31,
		})
		if err != nil {
			return err
		}
		defer sd.Close()
		// Activity everywhere, so the sparsity signal alone doesn't already
		// decide the allocation.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)))
		truth := field.GenPlumes(32, 32, 12, []field.Plume{
			{Row: 6, Col: 6, Sigma: 2.5, Amplitude: 25},
			{Row: 8, Col: 24, Sigma: 2.5, Amplitude: 25},
			{Row: 24, Col: 8, Sigma: 2.5, Amplitude: 25},
			{Row: 25, Col: 25, Sigma: 2.5, Amplitude: 25},
		})
		truth.AddNoise(rng, 0.05)
		if err := sd.SetTruth(truth); err != nil {
			return err
		}
		uni, err := sd.RunCampaign(core.CampaignConfig{TotalM: cfg.TotalM, Adaptive: true, Prior: truth})
		if err != nil {
			return err
		}
		if err := sd.SetCriticality(critZone, cfg.Crit); err != nil {
			return err
		}
		crit, err := sd.RunCampaign(core.CampaignConfig{TotalM: cfg.TotalM, Adaptive: true, Prior: truth})
		if err != nil {
			return err
		}
		outs[trial] = outcome{
			uniM: uni.Plan[critZone], critM: crit.Plan[critZone],
			uniNMSE: uni.ZoneNMSE[critZone], critNMSE: crit.ZoneNMSE[critZone],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	improved := 0
	for trial, o := range outs {
		if o.critNMSE <= o.uniNMSE {
			improved++
		}
		t.AddRow(d(trial), d(o.uniM), d(o.critM), f(o.uniNMSE), f(o.critNMSE))
	}
	t.AddNote("zone %d criticality raised to %.0fx: it receives a larger budget share and its error improved in %d/%d trials",
		critZone, cfg.Crit, improved, cfg.Trials)
	return t, nil
}

// --- Runner registry ----------------------------------------------------------------------------

// Runner executes one experiment at default configuration.
type Runner struct {
	ID   string
	Desc string
	Run  func() (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"fig1", "hierarchy vs flat sink scalability", func() (*Table, error) { return Fig1(DefaultFig1()) }},
		{"fig2", "NanoCloud broker round trip", func() (*Table, error) { return Fig2(DefaultFig2()) }},
		{"fig3", "probe inventory + virtual sensor fusion", func() (*Table, error) { return Fig3(3) }},
		{"fig4", "reconstruction accuracy vs measurements", func() (*Table, error) { return Fig4(DefaultFig4()) }},
		{"fig5", "adaptive per-zone compression", func() (*Table, error) { return Fig5(DefaultFig5()) }},
		{"fig6", "CHS algorithm OLS vs GLS", func() (*Table, error) { return Fig6(DefaultFig6()) }},
		{"c1", "transmissions O(N^2) vs O(NM)", func() (*Table, error) { return C1(DefaultC1()) }},
		{"c2", "M = O(K log N) bound", func() (*Table, error) { return C2(DefaultC2()) }},
		{"c3", ">80% energy savings via collaboration", func() (*Table, error) { return C3(DefaultC3()) }},
		{"c4", "compressive IsIndoor accuracy + energy", func() (*Table, error) { return C4(DefaultC4()) }},
		{"c5", "IsDriving from 30/256 samples", func() (*Table, error) { return C5(DefaultC5()) }},
		{"c6", "incentive mechanism comparison", func() (*Table, error) { return C6(DefaultC6()) }},
		{"c7", "heterogeneous radio selection", func() (*Table, error) { return C7(DefaultC7()) }},
		{"c8", "coverage under mobility models", func() (*Table, error) { return C8(DefaultC8()) }},
		{"c9", "opportunistic collaboration (Aquiba)", func() (*Table, error) { return C9(DefaultC9()) }},
		{"a1", "basis choice: DCT vs Haar vs learned", func() (*Table, error) { return A1(DefaultA1()) }},
		{"a2", "optimal K (U-shaped error)", func() (*Table, error) { return A2(DefaultA2()) }},
		{"a3", "criticality-directed budgets", func() (*Table, error) { return A3(DefaultA3()) }},
		{"a4", "sparse decoder comparison", func() (*Table, error) { return A4(DefaultA4()) }},
		{"a5", "joint spatio-temporal decoding", func() (*Table, error) { return A5(DefaultA5()) }},
		{"a6", "adaptive sampling (AIMD)", func() (*Table, error) { return A6(DefaultA6()) }},
		{"cfault", "accuracy vs injected faults", func() (*Table, error) { return CFault(DefaultCFault()) }},
		{"cfleet", "fleet backend parity + faults at scale", func() (*Table, error) { return CFleet(DefaultCFleet()) }},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
