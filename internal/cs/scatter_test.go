package cs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
)

// zoneCase is one zone decode shape of the bench workloads: an h×h field
// in the 2-D DCT, M sensors, the support cap K, the CHS iteration budget
// (0: the default), and GLS weights or not.
type zoneCase struct {
	name          string
	side, m, k    int
	maxIter       int
	gls           bool
	wantScattered bool // the step-(b) correlation takes the scattered front end
}

var zoneCases = []zoneCase{
	{"campaign-decode/64x64_M400_K133_OLS", 64, 400, 133, 0, false, true},
	{"fleet-round/64x64_M1024_K64_OLS", 64, 1024, 64, 64, false, false},
	{"wire-gather/32x32_M96_K32_GLS", 32, 96, 32, 0, true, true},
}

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
		alpha[j] = rng.NormFloat64() / (1 + (fr+fc)*(fr+fc))
	}
	x := make([]float64, n)
	op.Apply(x, alpha)
	if locs, err = RandomLocations(rng, n, c.m); err != nil {
		tb.Fatal(err)
	}
	sigmas = make([]float64, c.m)
	for i := range sigmas {
		sigmas[i] = 0.002 * float64(1+i%3)
	}
	if y, err = Measure(x, locs, rng, sigmas); err != nil {
		tb.Fatal(err)
	}
	return op, locs, y, sigmas
}

func (c zoneCase) opts(sigmas []float64) CHSOptions {
	o := CHSOptions{MaxSupport: c.k, MaxIter: c.maxIter, Tol: 1e-8, PerIter: 1}
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
// the case does exercise it), bit-identical on the M = 1024 zone, which
// keeps the FFT front end.
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
			got, err := chsDict(fast, locs, y, c.opts(sigmas))
			if err != nil {
				t.Fatal(err)
			}
			want, err := chsDict(ref, locs, y, c.opts(sigmas))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s seed %d", c.name, seed)
			n := op.Dim()
			cg, cw := make([]float64, n), make([]float64, n)
			if err := fast.corrT(cg, y); err != nil {
				t.Fatal(err)
			}
			if err := ref.corrT(cw, y); err != nil {
				t.Fatal(err)
			}
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

// BenchmarkCHSZone decodes one zone of each bench workload shape, the
// step-(b) correlation through the scattered analysis.
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
