package cs

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/basis"
)

// zoneCase is one zone decode shape of the bench workloads: an h×h field
// in the 2-D DCT, M sensors, the support cap K, the CHS iteration budget
// (0: the default), GLS weights or not, and the readings' noise: the
// sensors' σ cycle through noise, 2·noise and 3·noise.
type zoneCase struct {
	name          string
	side, m, k    int
	maxIter       int
	gls           bool
	noise         float64
	wantScattered bool // the step-(b) correlation takes the scattered front end
}

// The fleet case's σ ∈ {0.075, 0.15, 0.225} have the mean σ² of the
// fleet's uniform [0.05, 0.25].
var zoneCases = []zoneCase{
	{"campaign-decode/64x64_M400_K133_OLS", 64, 400, 133, 0, false, 0.002, true},
	{"fleet-round/64x64_M1024_K64_OLS", 64, 1024, 64, 64, false, 0.075, true},
	{"wire-gather/32x32_M96_K32_GLS", 32, 96, 32, 0, true, 0.002, true},
}

// zoneAmplitude scales zoneProblem's fields. At it each bench shape stops
// where its workload's decodes do: the campaign-decode and wire-gather
// shapes at their caps, the fleet's zone at its noise floor, some 35–45
// atoms into its 64.
const zoneAmplitude = 50

// zoneProblem draws a compressible field (2-D DCT coefficients decaying
// with frequency), M distinct sensor locations, and noisy readings with
// per-sensor σ.
func zoneProblem(tb testing.TB, c zoneCase, seed int64) (op basis.Operator, locs []int, y, sigmas []float64) {
	tb.Helper()
	op, err := basis.CachedOperator2D(basis.KindDCT, c.side, c.side)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	n := op.Dim()
	alpha := make([]float64, n)
	for j := range alpha {
		fr, fc := float64(j%c.side), float64(j/c.side)
		alpha[j] = zoneAmplitude * rng.NormFloat64() / (1 + (fr+fc)*(fr+fc))
	}
	x := make([]float64, n)
	op.Apply(x, alpha)
	if locs, err = RandomLocations(rng, n, c.m); err != nil {
		tb.Fatal(err)
	}
	sigmas = make([]float64, c.m)
	for i := range sigmas {
		sigmas[i] = c.noise * float64(1+i%3)
	}
	if y, err = Measure(x, locs, rng, sigmas); err != nil {
		tb.Fatal(err)
	}
	return op, locs, y, sigmas
}

// opts are the options production decodes the zone with: stop at the
// support cap or at the readings' noise floor.
func (c zoneCase) opts(sigmas []float64) CHSOptions {
	o := CHSOptions{MaxSupport: c.k, MaxIter: c.maxIter, Tol: NoiseTol(sigmas), PerIter: 1}
	if c.gls {
		o.Sigmas = sigmas
	}
	return o
}

// TestCHSScatteredCorrelationMatchesFullGrid pins whole decodes on the
// three bench zone shapes: CHS with the step-(b) correlation through the
// operator's scattered analysis admits the same atoms in the same order as
// with the full-grid scatter + ApplyTranspose, and reconstructs the same
// field to 1e-12, over 20 seeds each. The correlation only picks atoms, so
// with the same support the reconstructions are in fact bit-identical.
// The first correlation Φ̃ᵀy itself is checked too: within 1e-12 relative
// where the scattered front end runs (and different in some last bit, so
// the case does exercise it), bit-identical on a zone that keeps the FFT
// front end. All three bench shapes take the scattered one.
func TestCHSScatteredCorrelationMatchesFullGrid(t *testing.T) {
	for _, c := range zoneCases {
		scattered := 0
		for seed := int64(1); seed <= 20; seed++ {
			op, locs, y, sigmas := zoneProblem(t, c, seed)
			fast, err := newOpDict(op, locs)
			if err != nil {
				t.Fatal(err)
			}
			if fast.scat == nil {
				t.Fatalf("%s: the 2-D operator offers no scattered analysis", c.name)
			}
			ref, err := newOpDict(op, locs)
			if err != nil {
				t.Fatal(err)
			}
			ref.scat = nil // the full-grid scatter + ApplyTranspose
			got, err := chsDict(fast, new(workspace), y, c.opts(sigmas), false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := chsDict(ref, new(workspace), y, c.opts(sigmas), false)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s seed %d", c.name, seed)
			n := op.Dim()
			cg, cw := make([]float64, n), make([]float64, n)
			fast.corrT(cg, y)
			ref.corrT(cw, y)
			scale, diff, bitsDiffer := 0.0, 0.0, false
			for i, v := range cw {
				scale = math.Max(scale, math.Abs(v))
				diff = math.Max(diff, math.Abs(cg[i]-v))
				bitsDiffer = bitsDiffer || math.Float64bits(cg[i]) != math.Float64bits(v)
			}
			if diff > 1e-12*scale {
				t.Errorf("%s: correlation deviates from the full grid by %.3g relative", label, diff/scale)
			}
			if bitsDiffer {
				scattered++
			}
			if fmt.Sprint(got.Support) != fmt.Sprint(want.Support) {
				t.Fatalf("%s: support %v, full grid %v", label, got.Support, want.Support)
			}
			gap := 0.0
			for i, v := range want.Xhat {
				gap = math.Max(gap, math.Abs(got.Xhat[i]-v))
			}
			if gap > 1e-12 {
				t.Errorf("%s: max |ΔXhat| = %.3g, want ≤ 1e-12", label, gap)
			}
		}
		if (scattered > 0) != c.wantScattered {
			t.Errorf("%s: %d of 20 correlations differ from the full grid's bits; scattered front end expected: %v", c.name, scattered, c.wantScattered)
		}
	}
}

// legacySep synthesizes a Separable2D's factor columns on every call, as
// opDict.sepCol did before the operator memoized them: each factor's
// Apply of a unit vector, read from a zeroed scratch prefix.
type legacySep struct{ *basis.Separable2D }

func (o legacySep) FactorColumns(j int) (u, v []float64) {
	rowOp, colOp := o.Factors()
	h, w := rowOp.Dim(), colOp.Dim()
	full := make([]float64, o.Dim())
	u, v = make([]float64, h), make([]float64, w)
	jr, jc := j%h, j/h
	full[jr] = 1
	rowOp.Apply(u, full[:h])
	full[jr] = 0
	full[jc] = 1
	colOp.Apply(v, full[:w])
	return u, v
}

// sameDecode reports how got differs from want in support, coefficients,
// reconstruction or residual, bit for bit ("" if it does not).
func sameDecode(got, want *Result) string {
	if fmt.Sprint(got.Support) != fmt.Sprint(want.Support) {
		return fmt.Sprintf("support %v, want %v", got.Support, want.Support)
	}
	for name, p := range map[string][2][]float64{"Alpha": {got.Alpha, want.Alpha}, "Xhat": {got.Xhat, want.Xhat}} {
		for i, w := range p[1] {
			if math.Float64bits(p[0][i]) != math.Float64bits(w) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, p[0][i], w)
			}
		}
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		return fmt.Sprintf("residual %v, want %v", got.Residual, want.Residual)
	}
	return ""
}

// TestCHSFactorColumnMemoBitIdentical pins whole decodes on the three bench
// zone shapes, 20 seeds each, to the column synthesis the factor-column
// memo replaced (legacySep): the same support in the same order and the
// same α, x̂ and residual bit for bit. It then runs the decodes again
// concurrently, 4 goroutines a shape on one freshly cached operator whose
// memo they fill as they go, and requires the same bits.
func TestCHSFactorColumnMemoBitIdentical(t *testing.T) {
	const seeds, workers = 20, 4
	for _, c := range zoneCases {
		basis.ResetCache() // a cached operator with an empty memo
		ops := make([]basis.Operator, seeds)
		locs := make([][]int, seeds)
		ys, sigmas := make([][]float64, seeds), make([][]float64, seeds)
		want := make([]*Result, seeds)
		for s := range want {
			var err error
			ops[s], locs[s], ys[s], sigmas[s] = zoneProblem(t, c, int64(s+1))
			legacy := legacySep{ops[s].(*basis.Separable2D)}
			if want[s], err = CHSOp(legacy, locs[s], ys[s], c.opts(sigmas[s])); err != nil {
				t.Fatal(err)
			}
			if ops[s] != ops[0] {
				t.Fatalf("%s: seed %d decodes a different operator", c.name, s+1)
			}
		}
		errs := make([]string, seeds)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for s := g; s < seeds; s += workers {
					got, err := CHSOp(ops[s], locs[s], ys[s], c.opts(sigmas[s]))
					if err != nil {
						errs[s] = err.Error()
					} else {
						errs[s] = sameDecode(got, want[s])
					}
				}
			}(g)
		}
		wg.Wait()
		for s := range want {
			got, err := CHSOp(ops[s], locs[s], ys[s], c.opts(sigmas[s]))
			if err != nil {
				t.Fatal(err)
			}
			if d := sameDecode(got, want[s]); d != "" {
				t.Errorf("%s seed %d: %s", c.name, s+1, d)
			}
			if errs[s] != "" {
				t.Errorf("%s seed %d, concurrent: %s", c.name, s+1, errs[s])
			}
		}
	}
}

// BenchmarkCHSZone decodes one zone of each bench workload shape, the
// step-(b) correlation through the scattered analysis, with the options
// and noise level production runs.
func BenchmarkCHSZone(b *testing.B) {
	for _, c := range zoneCases {
		op, locs, y, sigmas := zoneProblem(b, c, 1)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CHSOp(op, locs, y, c.opts(sigmas)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBPDNZone solves the ℓ1 program on one zone of each bench
// workload shape, at the same noise floor BenchmarkCHSZone stops at.
func BenchmarkBPDNZone(b *testing.B) {
	for _, c := range zoneCases {
		op, locs, y, sigmas := zoneProblem(b, c, 1)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BPDN(op, locs, y, NoiseTol(sigmas)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
