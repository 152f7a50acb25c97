package cs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/basis"
	"repro/internal/mat"
)

// ompReference is OMP as its own loop, before OMPOp ran on the CHS loop:
// a fresh dictionary, factors and scratch per decode, the |Φ̃ⱼᵀr| / ‖Φ̃ⱼ‖
// selection skipping columns the sensors do not see, and a stop after k
// atoms, on a rank-deficient admission, or once ‖r‖ ≤ tol with at least
// one atom admitted. (Its warm-start branch is left out: OMPOp never
// seeded it.)
func ompReference(op basis.Operator, locs []int, y []float64, k int, tol float64) (*Result, error) {
	d, err := newOpDict(op, locs)
	if err != nil {
		return nil, err
	}
	m, n := d.rows(), d.n
	if len(y) != m {
		return nil, fmt.Errorf("cs: %d measurements for %d locations", len(y), m)
	}
	if k <= 0 {
		return nil, errors.New("cs: sparsity k must be positive")
	}
	if k > m {
		k = m // cannot identify more atoms than measurements
	}
	qr, err := mat.NewIncrementalQR(m, k)
	if err != nil {
		return nil, err
	}
	resid := slices.Clone(y)
	corr := make([]float64, n)
	col := make([]float64, m)
	support := make([]int, 0, k)
	inSupport := make([]bool, n)
	iters := 0
	var colNorm []float64
	for len(support) < k {
		if mat.Norm2(resid) <= tol && len(support) > 0 {
			break
		}
		if colNorm == nil {
			colNorm = make([]float64, n)
			d.colNorms(colNorm, col)
		}
		iters++
		d.corrT(corr, resid)
		best, bestJ := 0.0, -1
		for j, dot := range corr {
			if inSupport[j] || colNorm[j] == 0 {
				continue
			}
			if c := math.Abs(dot) / colNorm[j]; c > best {
				best, bestJ = c, j
			}
		}
		if bestJ < 0 {
			break
		}
		if err := d.col(col, bestJ); err != nil {
			return nil, err
		}
		if err := qr.Append(col); err != nil {
			break
		}
		support = append(support, bestJ)
		inSupport[bestJ] = true
		if _, err := qr.DeflateLatest(resid); err != nil {
			return nil, err
		}
		if mat.Norm2(resid) <= tol {
			break
		}
	}
	if len(support) == 0 {
		return zeroResult(d, y, iters)
	}
	coef := make([]float64, qr.Len())
	if err := qr.SolveInto(coef, y); err != nil {
		return nil, err
	}
	return packResult(d, support, coef, y, iters)
}

// ompOperators are the operator families the OMP pin runs on: the FFT
// fast paths, the dense fallback of a non-power-of-two DCT, Haar (whose
// localized atoms leave columns no sensor sees), the identity, a 2-D
// Separable2D and a dense random orthonormal basis.
func ompOperators(t *testing.T) []struct {
	name string
	op   basis.Operator
} {
	t.Helper()
	must := func(op basis.Operator, err error) basis.Operator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	// Gram–Schmidt on a Gaussian matrix: a random orthonormal basis.
	const nq = 48
	rng := rand.New(rand.NewSource(5))
	q := mat.New(nq, nq)
	for j := 0; j < nq; j++ {
		v := make([]float64, nq)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for p := 0; p < j; p++ {
			dot := 0.0
			for i := range v {
				dot += v[i] * q.At(i, p)
			}
			for i := range v {
				v[i] -= dot * q.At(i, p)
			}
		}
		norm := mat.Norm2(v)
		for i := range v {
			q.Set(i, j, v[i]/norm)
		}
	}
	return []struct {
		name string
		op   basis.Operator
	}{
		{"dct64", must(basis.OperatorFor(basis.KindDCT, 64))},
		{"dct96-dense", must(basis.OperatorFor(basis.KindDCT, 96))},
		{"dft64", must(basis.OperatorFor(basis.KindDFT, 64))},
		{"haar64", must(basis.OperatorFor(basis.KindHaar, 64))},
		{"identity64", must(basis.OperatorFor(basis.KindIdentity, 64))},
		{"dct8x16", must(basis.CachedOperator2D(basis.KindDCT, 8, 16))},
		{"orthonormal48", must(basis.FromMatrix(q))},
	}
}

// ompProblem draws a sparse signal in op's basis, m = n/4…n/2 distinct
// sensors and readings with heterogeneous noise σ ∈ [0.005, 0.05].
func ompProblem(op basis.Operator, seed int64) (locs []int, y, sigmas []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := op.Dim()
	m := n/4 + rng.Intn(n/4+1)
	alpha := make([]float64, n)
	for _, j := range rng.Perm(n)[:max(m/4, 1)] {
		alpha[j] = (1 + 2*rng.Float64()) * float64(1-2*rng.Intn(2))
	}
	x := make([]float64, n)
	op.Apply(x, alpha)
	locs = rng.Perm(n)[:m]
	sigmas = make([]float64, m)
	y = make([]float64, m)
	for i, l := range locs {
		sigmas[i] = 0.005 + 0.045*rng.Float64()
		y[i] = x[l] + sigmas[i]*rng.NormFloat64()
	}
	return locs, y, sigmas
}

// TestOMPMatchesReference pins OMPOp, which runs on the CHS loop with a
// pooled workspace, against ompReference bit for bit — Alpha, Support,
// Xhat, Residual and Iterations — on 30 seeded problems per operator
// family, each at k ∈ {1, M/3, M, M+5} and tol ∈ {0, 1e-9, NoiseTol}:
// 2,520 decodes. The one intended difference is exempt and asserted on its
// own: when ‖y‖ ≤ tol, OMPOp returns the zero estimate after 0 iterations
// where the reference admitted one atom first. Haar's problems must
// include columns with zero sampled norm, which the selection skips.
func TestOMPMatchesReference(t *testing.T) {
	pinned, exempt := 0, 0
	for _, o := range ompOperators(t) {
		zeroNorm := false
		for seed := int64(0); seed < 30; seed++ {
			locs, y, sigmas := ompProblem(o.op, seed)
			d, err := newOpDict(o.op, locs)
			if err != nil {
				t.Fatal(err)
			}
			m := len(locs)
			norms := make([]float64, d.n)
			d.colNorms(norms, make([]float64, m))
			for _, s := range norms {
				zeroNorm = zeroNorm || s == 0
			}
			for _, k := range []int{1, m / 3, m, m + 5} {
				for _, tol := range []float64{0, 1e-9, NoiseTol(sigmas)} {
					label := fmt.Sprintf("%s seed %d k=%d tol=%g", o.name, seed, k, tol)
					want, werr := ompReference(o.op, locs, y, k, tol)
					got, gerr := OMPOp(o.op, locs, y, k, tol)
					if (werr != nil) != (gerr != nil) {
						t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if mat.Norm2(y) <= tol {
						checkZeroEstimate(t, label, got, locs, y)
						exempt++
						continue
					}
					if diff := sameResult(got, want); diff != "" {
						t.Fatalf("%s: %s", label, diff)
					}
					pinned++
				}
			}
		}
		if o.name == "haar64" && !zeroNorm {
			t.Fatal("no Haar problem leaves a column unseen by the sensors")
		}
	}
	if pinned < 200 {
		t.Fatalf("only %d decodes pinned", pinned)
	}
	t.Logf("%d decodes pinned bit for bit, %d with ‖y‖ ≤ tol", pinned, exempt)
}

// TestOMPStopsAtOnceUnderTol: readings whose norm is already at most tol
// decode to the zero estimate after 0 iterations, as CHS's do; the old
// OMP loop admitted one atom first.
func TestOMPStopsAtOnceUnderTol(t *testing.T) {
	for _, o := range ompOperators(t) {
		locs, y, sigmas := ompProblem(o.op, 1)
		tol := NoiseTol(sigmas)
		small := make([]float64, len(y))
		for i, v := range y {
			small[i] = v * 0.5 * tol / mat.Norm2(y)
		}
		for _, c := range []struct {
			name string
			y    []float64
			tol  float64
		}{{"zero readings, tol 0", make([]float64, len(y)), 0}, {"‖y‖ = tol/2", small, tol}} {
			label := o.name + ": " + c.name
			got, err := OMPOp(o.op, locs, c.y, len(locs)/3, c.tol)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkZeroEstimate(t, label, got, locs, c.y)
			if old, err := ompReference(o.op, locs, c.y, len(locs)/3, c.tol); err != nil {
				t.Fatal(err)
			} else if old.Iterations != 1 {
				t.Fatalf("%s: the reference ran %d iterations, want the one the change removes", label, old.Iterations)
			}
		}
	}
}

// checkZeroEstimate fails unless res is the zero estimate after 0
// iterations, with the residual ‖y‖.
func checkZeroEstimate(t *testing.T, label string, res *Result, locs []int, y []float64) {
	t.Helper()
	if res.Iterations != 0 || len(res.Support) != 0 {
		t.Fatalf("%s: %d iterations, support %v, want 0 and none", label, res.Iterations, res.Support)
	}
	for i := range res.Alpha {
		if res.Alpha[i] != 0 || res.Xhat[i] != 0 {
			t.Fatalf("%s: alpha[%d] = %v, xhat[%d] = %v, want the zero estimate", label, i, res.Alpha[i], i, res.Xhat[i])
		}
	}
	if want := residualNorm(locs, y, res.Xhat); res.Residual != want {
		t.Fatalf("%s: residual %v, want ‖y‖ = %v", label, res.Residual, want)
	}
}
