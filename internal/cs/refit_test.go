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

// The decoders' least-squares steps used to copy the support's gathered
// columns into a *mat.Matrix and factor that matrix's columns into an
// IncrementalQR. The legacy* helpers are test-local copies of that route,
// which the tests below pin the direct factoring (opDict.factorInto) to.

// legacySub is the m×|idx| matrix Φ̃_idx the decoders used to build.
func legacySub(tb testing.TB, d *opDict, idx []int) *mat.Matrix {
	sub := mat.New(d.rows(), len(idx))
	for c, j := range idx {
		col, err := d.gatherCol(j)
		if err != nil {
			tb.Fatal(err)
		}
		for i, v := range col {
			sub.Set(i, c, v)
		}
	}
	return sub
}

// legacyFactor factors a's columns, in order, into an IncrementalQR.
func legacyFactor(a *mat.Matrix) (*mat.IncrementalQR, error) {
	f, err := mat.NewIncrementalQR(a.Rows, a.Cols)
	col := make([]float64, a.Rows)
	for j := 0; j < a.Cols && err == nil; j++ {
		for i := range col {
			col[i] = a.At(i, j)
		}
		err = f.Append(col)
	}
	return f, err
}

// legacyLeastSquares is the OLS solve min ‖a·x − b‖₂ on legacyFactor.
func legacyLeastSquares(a *mat.Matrix, b []float64) ([]float64, error) {
	f, err := legacyFactor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// legacyGLS is the GLS refit on a built matrix: each σ floored at
// minSigma, row i of a and b divided by √(σᵢ²), then OLS.
func legacyGLS(a *mat.Matrix, b, sigmas []float64) ([]float64, error) {
	wa, wb := mat.New(a.Rows, a.Cols), make([]float64, a.Rows)
	for i, s := range sigmas {
		s = max(s, minSigma)
		d := math.Sqrt(s * s)
		wb[i] = b[i] / d
		for j := 0; j < a.Cols; j++ {
			wa.Set(i, j, a.At(i, j)/d)
		}
	}
	return legacyLeastSquares(wa, wb)
}

// legacyCoSaMP is cosampDict with each merge's least squares and each
// residual prediction computed on a built matrix.
func legacyCoSaMP(t *testing.T, d *opDict, y []float64, k int) *Result {
	m, n := d.rows(), d.n
	k = min(k, max(m/3, 1))
	alpha, resid, pred := make([]float64, n), mat.CloneVec(y), make([]float64, m)
	proxy, idxScratch, mask := make([]float64, n), make([]int, n), make([]bool, n)
	iters := 0
	for prev := math.Inf(1); iters < 50; iters++ {
		rn := mat.Norm2(resid)
		if rn <= 1e-9 || math.Abs(prev-rn) < 1e-9 {
			break
		}
		prev = rn
		d.corrT(proxy, resid)
		for _, j := range supportOf(alpha) {
			mask[j] = true
		}
		for _, j := range topKIndicesInto(proxy, 2*k, idxScratch) {
			mask[j] = true
		}
		var idx []int
		for j := range mask {
			if mask[j] && len(idx) < min(3*k, m) {
				idx = append(idx, j)
			}
			mask[j] = false
		}
		ls, err := legacyLeastSquares(legacySub(t, d, idx), y)
		if len(idx) == 0 || err != nil {
			break
		}
		clear(alpha)
		for i, j := range idx {
			alpha[j] = ls[i]
		}
		hardThresholdWith(alpha, k, idxScratch, mask)
		support := supportOf(alpha)
		if err := mat.MulVecInto(pred, legacySub(t, d, support), packed(alpha, support)); err != nil {
			t.Fatal(err)
		}
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
	}
	return mustPack(t, d, supportOf(alpha), packed(alpha, supportOf(alpha)), y, iters)
}

// packed returns alpha's entries on support, in support's order.
func packed(alpha []float64, support []int) []float64 {
	coef := make([]float64, len(support))
	for i, j := range support {
		coef[i] = alpha[j]
	}
	return coef
}

func mustPack(t *testing.T, d *opDict, support []int, coef, y []float64, iters int) *Result {
	t.Helper()
	res, err := packResult(d, support, coef, y, iters)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustCHS(t *testing.T, op basis.Operator, locs []int, y []float64, opts CHSOptions) *Result {
	t.Helper()
	res, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// seq returns 0, 1, …, k−1.
func seq(k int) []int {
	s := make([]int, k)
	for i := range s {
		s[i] = i
	}
	return s
}

// embed returns the dictionary sampled at rows 0..M−1 of a square basis
// whose first K columns, on those rows, are sub's.
func embed(tb testing.TB, sub *mat.Matrix) *opDict {
	n := max(sub.Rows, sub.Cols)
	phi := mat.New(n, n)
	for i := 0; i < sub.Rows; i++ {
		copy(phi.Data[i*n:], sub.Data[i*sub.Cols:(i+1)*sub.Cols])
	}
	d, err := newOpDict(denseOp(tb, phi), seq(sub.Rows))
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// a4Problem draws one instance of the A4 experiment's shape: a 6-sparse
// signal in the 128-point DCT, read at 40 random locations with noise
// σ = 0.02.
func a4Problem(t *testing.T, seed int64) (basis.Operator, []float64, []int, []float64) {
	op, err := basis.CachedOperator(basis.KindDCT, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	alpha, x := make([]float64, 128), make([]float64, 128)
	for _, j := range rng.Perm(128)[:6] {
		alpha[j] = 2 + rng.Float64()*3
	}
	op.Apply(x, alpha)
	locs, err := RandomLocations(rng, 128, 40)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Measure(x, locs, rng, []float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	return op, x, locs, y
}

// TestLeastSquaresStepsMatchBuiltMatrix pins every least-squares step to
// the route through a built sub-matrix, bit for bit: CHSOp with
// heterogeneous σ (its GLS refit) on the three bench zone shapes × 20
// seeds, IHTOp's debias and CoSaMPOp's per-iteration solves and residuals
// on the A4 shape × 20 seeds — each in Support, Alpha, Xhat and Residual —
// and Diagnose's ε_c on every one of those supports.
func TestLeastSquaresStepsMatchBuiltMatrix(t *testing.T) {
	check := func(label string, d *opDict, x []float64, got, want *Result) {
		t.Helper()
		if diff := sameDecode(got, want); diff != "" {
			t.Errorf("%s: %s", label, diff)
		}
		bd, err := Diagnose(d.op, x, d.locs, got, nil)
		if err != nil {
			t.Fatal(err)
		}
		cond := math.Inf(1)
		if f, err := legacyFactor(legacySub(t, d, got.Support)); err == nil {
			cond = f.ConditionEstimate()
		}
		if math.Float64bits(bd.Condition) != math.Float64bits(cond) {
			t.Errorf("%s: Diagnose condition %v, built matrix %v", label, bd.Condition, cond)
		}
	}
	for _, c := range zoneCases {
		for seed := int64(1); seed <= 20; seed++ {
			op, locs, y, sigmas := zoneProblem(t, c, seed)
			opts := c.opts(sigmas)
			opts.Sigmas = nil
			ols := mustCHS(t, op, locs, y, opts)
			opts.Sigmas = sigmas
			d, err := newOpDict(op, locs)
			if err != nil {
				t.Fatal(err)
			}
			coef, err := legacyGLS(legacySub(t, d, ols.Support), y, sigmas)
			if err != nil {
				t.Fatal(err)
			}
			want := mustPack(t, d, ols.Support, coef, y, ols.Iterations)
			check(fmt.Sprintf("%s seed %d GLS", c.name, seed), d, want.Xhat, mustCHS(t, op, locs, y, opts), want)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		op, x, locs, y := a4Problem(t, seed)
		d, err := newOpDict(op, locs)
		if err != nil {
			t.Fatal(err)
		}
		iht, err := IHTOp(op, locs, y, IHTOptions{K: 6})
		if err != nil {
			t.Fatal(err)
		}
		coef, err := legacyLeastSquares(legacySub(t, d, iht.Support), y)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("A4 seed %d IHT", seed), d, x, iht, mustPack(t, d, iht.Support, coef, y, iht.Iterations))
		cosamp, err := CoSaMPOp(op, locs, y, CoSaMPOptions{K: 6})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("A4 seed %d CoSaMP", seed), d, x, cosamp, legacyCoSaMP(t, d, y, 6))
	}
}

// TestCHSGLSIdentityCovarianceMatchesOLS: under σ = 1 the GLS refit
// divides by exactly 1 and refactors the same columns in the same order,
// so it returns the OLS decode bit for bit.
func TestCHSGLSIdentityCovarianceMatchesOLS(t *testing.T) {
	for _, c := range zoneCases {
		op, locs, y, sigmas := zoneProblem(t, c, 1)
		opts := c.opts(sigmas)
		opts.Sigmas = nil
		ols := mustCHS(t, op, locs, y, opts)
		opts.Sigmas = make([]float64, len(y))
		for i := range opts.Sigmas {
			opts.Sigmas[i] = 1
		}
		if diff := sameDecode(mustCHS(t, op, locs, y, opts), ols); diff != "" {
			t.Errorf("%s: GLS with V = I: %s", c.name, diff)
		}
	}
}

// TestCHSGLSDownweightsNoisyRows: a quarter of the readings carry gross
// noise (σ = 1) and claim σ = 10, the rest are exact and claim σ = 0.01.
// The refit on the recovered support must land closer to the true
// coefficients than OLS does.
func TestCHSGLSDownweightsNoisyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	phi := denseDCT(64)
	x, alpha, _ := sparseSignal(rng, phi, 3)
	locs, err := RandomLocations(rng, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	y, sigmas := make([]float64, len(locs)), make([]float64, len(locs))
	for i, l := range locs {
		y[i], sigmas[i] = x[l], 0.01
		if i%4 == 3 {
			y[i], sigmas[i] = x[l]+rng.NormFloat64(), 10
		}
	}
	opts := CHSOptions{MaxSupport: 3, Tol: 1e-6}
	olsErr := mat.Norm2(mat.SubVec(mustCHS(t, denseOp(t, phi), locs, y, opts).Alpha, alpha))
	opts.Sigmas = sigmas
	glsErr := mat.Norm2(mat.SubVec(mustCHS(t, denseOp(t, phi), locs, y, opts).Alpha, alpha))
	if glsErr >= olsErr || glsErr > 0.05 {
		t.Fatalf("coefficient error: GLS %v, OLS %v; want GLS below OLS and 0.05", glsErr, olsErr)
	}
}

// TestCHSGLSFloorsZeroSigma: a σ of 0, −0 or below minSigma claims an
// exact reading, whose weight would be infinite; the refit floors it at
// minSigma instead, so the decode is the one with those σ at the floor.
func TestCHSGLSFloorsZeroSigma(t *testing.T) {
	c := zoneCases[2]
	op, locs, y, sigmas := zoneProblem(t, c, 3)
	floored := append([]float64(nil), sigmas...)
	for i, s := range []float64{0, math.Copysign(0, -1), minSigma / 3} {
		sigmas[i], floored[i] = s, minSigma
	}
	opts := c.opts(sigmas)
	opts.Sigmas = sigmas
	got := mustCHS(t, op, locs, y, opts)
	opts.Sigmas = floored
	if diff := sameDecode(got, mustCHS(t, op, locs, y, opts)); diff != "" {
		t.Errorf("σ below the floor: %s", diff)
	}
}

// TestDiagnoseCondition pins ε_c: exact for orthogonal support columns,
// and +Inf for a dependent column or for a support wider than the
// readings, whose columns cannot be independent.
func TestDiagnoseCondition(t *testing.T) {
	phi, err := mat.NewFromRows([][]float64{{10, 0, 0, 10}, {0, 1, 0, 0}, {0, 0, 0.1, 0}, {0, 0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 4)
	for _, c := range []struct {
		locs, support []int
		want          float64
	}{
		{[]int{0, 1, 2}, []int{0, 1, 2}, 100},
		{[]int{0, 1, 2}, []int{0, 3}, math.Inf(1)}, // column 3 is column 0 on these rows
		{[]int{0, 1}, []int{0, 1, 2}, math.Inf(1)},
	} {
		bd, err := Diagnose(denseOp(t, phi), x, c.locs, &Result{Support: c.support, Xhat: x}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := bd.Condition; got != c.want && !(math.Abs(got-c.want) <= 1e-12*c.want) {
			t.Errorf("locs %v, support %v: condition %v, want %v", c.locs, c.support, got, c.want)
		}
	}
}

// TestCHSGLSScaleRelation: multiplying every reading and every σ by 2^±10
// is exact in binary floating point, and with σ clear of minSigma and the
// tolerance clear of the 1e-8 floor no absolute constant binds, so a GLS
// decode returns the same support and exactly 2^±10 times α, x̂ and the
// residual. (The rank test's max(‖col‖, 1) in IncrementalQR.Append is the
// one absolute constant left on this path; no admitted column comes near
// it here.)
func TestCHSGLSScaleRelation(t *testing.T) {
	scaled := func(v []float64, k int) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = math.Ldexp(x, k)
		}
		return out
	}
	for _, c := range zoneCases {
		c.noise = 0.25 // σ·2^−10 ≥ 2.4e-4 stays above minSigma
		op, locs, y, sigmas := zoneProblem(t, c, 5)
		opts := c.opts(sigmas)
		opts.Sigmas = sigmas
		base := mustCHS(t, op, locs, y, opts)
		for _, k := range []int{-10, 10} {
			o := c.opts(scaled(sigmas, k))
			o.Sigmas = scaled(sigmas, k)
			if slices.Min(o.Sigmas) <= minSigma || o.Tol <= minTol {
				t.Fatalf("%s 2^%d: σ or Tol at its floor", c.name, k)
			}
			want := &Result{Support: base.Support, Alpha: scaled(base.Alpha, k), Xhat: scaled(base.Xhat, k), Residual: math.Ldexp(base.Residual, k)}
			if diff := sameDecode(mustCHS(t, op, locs, scaled(y, k), o), want); diff != "" {
				t.Errorf("%s scaled by 2^%d: %s", c.name, k, diff)
			}
		}
	}
}
