package cs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/basis"
	"repro/internal/mat"
)

// permuteReadings reorders a gather's readings (location, value and σ
// together) by a permutation drawn from seed; sigmas may be nil.
func permuteReadings(seed int64, locs []int, y, sigmas []float64) (pl []int, py, ps []float64) {
	perm := rand.New(rand.NewSource(seed)).Perm(len(locs))
	pl, py = make([]int, len(perm)), make([]float64, len(perm))
	if sigmas != nil {
		ps = make([]float64, len(perm))
	}
	for i, p := range perm {
		pl[i], py[i] = locs[p], y[p]
		if sigmas != nil {
			ps[i] = sigmas[p]
		}
	}
	return pl, py, ps
}

// checkPermutedDecode logs how got, the decode of the permuted readings,
// departs from base, the decode in gather order, and fails unless the
// support (in admission order) and the iteration count are equal and x̂
// and the residual are within 1e-12 relative.
func checkPermutedDecode(t *testing.T, label string, base, got *Result) {
	t.Helper()
	xhatDev, scale := 0.0, 0.0
	for i, v := range base.Xhat {
		scale = math.Max(scale, math.Abs(v))
		xhatDev = math.Max(xhatDev, math.Abs(got.Xhat[i]-v))
	}
	xhatDev /= scale
	resDev := math.Abs(got.Residual-base.Residual) / base.Residual
	t.Logf("%s: %d atoms in %d iterations, x̂ %.2g and residual %.2g relative apart",
		label, len(base.Support), base.Iterations, xhatDev, resDev)
	switch {
	case !slices.Equal(got.Support, base.Support):
		t.Errorf("%s: permuted support %v, want %v", label, got.Support, base.Support)
	case got.Iterations != base.Iterations:
		t.Errorf("%s: permuted decode took %d iterations, want %d", label, got.Iterations, base.Iterations)
	case xhatDev > 1e-12 || resDev > 1e-12:
		t.Errorf("%s: x̂ %.3g and residual %.3g relative apart, want within 1e-12", label, xhatDev, resDev)
	}
}

// TestCHSGatherOrderRelation pins the gather-order relation: the order in
// which a gather's readings arrive says nothing about the field, so
// permuting them (location, value and σ together) must leave CHS's
// support, in admission order, and its iteration count unchanged, with
// x̂ and the residual within 1e-12 relative. The tolerance is recomputed
// from the permuted σ, as a broker decoding the permuted gather would.
// It runs on the three bench zone shapes at seeds 1–20, and every seed
// is checked and logged, so a violation names each seed it shows on.
func TestCHSGatherOrderRelation(t *testing.T) {
	for _, c := range zoneCases {
		for seed := int64(1); seed <= 20; seed++ {
			op, locs, y, sigmas := zoneProblem(t, c, seed)
			base, err := CHSOp(op, locs, y, c.opts(sigmas))
			if err != nil {
				t.Fatal(err)
			}
			pl, py, ps := permuteReadings(seed, locs, y, sigmas)
			got, err := CHSOp(op, pl, py, c.opts(ps))
			if err != nil {
				t.Fatal(err)
			}
			checkPermutedDecode(t, fmt.Sprintf("%s seed %d", c.name, seed), base, got)
		}
	}
}

// ompCase is one OMP problem family of the relation tests below: a
// basis, M readings with their noise, the sparsity K and a draw of α.
type ompCase struct {
	name  string
	op    basis.Operator
	m, k  int
	noise []float64
	alpha func(rng *rand.Rand) []float64
}

// ompCases are the 1-D DCT shape of ablation A4 (N = 128, M = 40, K = 6,
// σ = 0.02; column norms from the DCT's table rows) and an A5-like joint
// problem in spatial 2-D DCT ⊗ temporal DCT (12×12 grid, 8 steps, 16
// noiseless readings per step, K = T·M/3; norms from the memoized factor
// columns).
func ompCases(t *testing.T) []ompCase {
	t.Helper()
	dct128, err := basis.CachedOperator(basis.KindDCT, 128)
	if err != nil {
		t.Fatal(err)
	}
	space, err := basis.CachedOperator2D(basis.KindDCT, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	tempo, err := basis.CachedOperator(basis.KindDCT, 8)
	if err != nil {
		t.Fatal(err)
	}
	return []ompCase{
		{"a4/dct128_M40_K6", dct128, 40, 6, []float64{0.02}, func(rng *rand.Rand) []float64 {
			alpha := make([]float64, 128)
			for _, j := range rng.Perm(128)[:6] {
				alpha[j] = 2 + 3*rng.Float64()
			}
			return alpha
		}},
		{"a5/dct12x12⊗dct8_M128_K42", basis.NewSeparable2D(space, tempo), 128, 128 / 3, nil, func(rng *rand.Rand) []float64 {
			// Coefficient jt·144 + jc·12 + jr decays with its total
			// frequency, as a slowly drifting smooth field's do.
			alpha := make([]float64, 144*8)
			for j := range alpha {
				f := float64(j%12 + j/12%12 + j/144)
				alpha[j] = 25 * rng.NormFloat64() / (1 + f*f)
			}
			return alpha
		}},
	}
}

// problem draws the case's readings at seed.
func (c ompCase) problem(t *testing.T, seed int64) (locs []int, y []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, c.op.Dim())
	c.op.Apply(x, c.alpha(rng))
	locs, err := RandomLocations(rng, len(x), c.m)
	if err != nil {
		t.Fatal(err)
	}
	y, err = Measure(x, locs, rng, c.noise)
	if err != nil {
		t.Fatal(err)
	}
	return locs, y
}

func mustOMP(t *testing.T, op basis.Operator, locs []int, y []float64, k int, tol float64) *Result {
	t.Helper()
	res, err := OMPOp(op, locs, y, k, tol)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOMPGatherOrderRelation is the gather-order relation for OMP, whose
// column norms are sums over the readings and so are summed in gather
// order: on both ompCases, permuting the readings leaves OMP's support,
// in admission order, and its iteration count unchanged, with x̂ and the
// residual within 1e-12 relative, at seeds 1–20 each.
func TestOMPGatherOrderRelation(t *testing.T) {
	for _, c := range ompCases(t) {
		for seed := int64(1); seed <= 20; seed++ {
			locs, y := c.problem(t, seed)
			base := mustOMP(t, c.op, locs, y, c.k, 1e-9)
			pl, py, _ := permuteReadings(seed, locs, y, nil)
			got := mustOMP(t, c.op, pl, py, c.k, 1e-9)
			checkPermutedDecode(t, fmt.Sprintf("%s seed %d", c.name, seed), base, got)
		}
	}
}

// TestOMPScaleRelation: multiplying every reading and the tolerance by
// 2^±10 is exact in binary floating point, and OMP's selection scores,
// deflations and least-squares solve are homogeneous in the readings, so
// on both ompCases at seeds 1–20 the decode returns the same support in
// the same order after the same number of iterations, and exactly 2^±10
// times α, x̂ and the residual. Each problem decodes at its K, where most
// decodes stop at the cap, and at 2K, where every one stops at the
// tolerance: the readings' noise norm on the A4 shape, 5 % of ‖y‖ on the
// noiseless A5 one, clear of the 1e-8 floor when scaled down. No
// exception is known. (The rank test's max(‖col‖, 1) in
// IncrementalQR.Append reads the basis columns, which do not scale.)
func TestOMPScaleRelation(t *testing.T) {
	scaled := func(v []float64, k int) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = math.Ldexp(x, k)
		}
		return out
	}
	for _, c := range ompCases(t) {
		for seed := int64(1); seed <= 20; seed++ {
			locs, y := c.problem(t, seed)
			tol := 0.05 * mat.Norm2(y)
			if c.noise != nil {
				tol = c.noise[0] * math.Sqrt(float64(c.m)) // NoiseTol of the m readings
			}
			for _, kmax := range []int{c.k, 2 * c.k} {
				base := mustOMP(t, c.op, locs, y, kmax, tol)
				if kmax > c.k && base.Iterations == kmax {
					t.Fatalf("%s seed %d: the decode at 2K ran to its cap, so the tolerance was not tested", c.name, seed)
				}
				for _, k := range []int{-10, 10} {
					if math.Ldexp(tol, k) <= 100*minTol {
						t.Fatalf("%s seed %d: tolerance %g scaled by 2^%d is near the 1e-8 floor", c.name, seed, tol, k)
					}
					got := mustOMP(t, c.op, locs, scaled(y, k), kmax, math.Ldexp(tol, k))
					want := &Result{Support: base.Support, Alpha: scaled(base.Alpha, k), Xhat: scaled(base.Xhat, k), Residual: math.Ldexp(base.Residual, k)}
					if diff := sameDecode(got, want); diff != "" || got.Iterations != base.Iterations {
						t.Errorf("%s seed %d, K = %d, scaled by 2^%d: %s; %d iterations, want %d",
							c.name, seed, kmax, k, diff, got.Iterations, base.Iterations)
					}
				}
			}
		}
	}
}
