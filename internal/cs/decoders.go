package cs

// Additional sparse decoders beyond OMP/BP: iterative hard thresholding
// (IHT) and CoSaMP. The paper names OMP and the L1 program explicitly;
// these two are the standard greedy alternatives a production middleware
// would ship so brokers can trade robustness against compute (the A4
// ablation compares all four).

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/lp"
	"repro/internal/mat"
)

// IHTOptions tunes iterative hard thresholding, which stops early once
// the residual norm changes by less than 1e-9.
type IHTOptions struct {
	K       int // target sparsity (required)
	MaxIter int // default 200
}

// IHTOp recovers a K-sparse coefficient vector by projected gradient
// descent: α ← H_K(α + µ·Φ̃ᵀ(y − Φ̃α)), where H_K keeps the K largest
// magnitudes. Slower to converge than OMP but a single matrix-vector pair
// per iteration and very robust to coherent dictionaries. Through a
// matrix-free basis operator that pair (predict, correlate) is one
// synthesis and one analysis at O(n log n).
func IHTOp(op basis.Operator, locs []int, y []float64, opts IHTOptions) (*Result, error) {
	d, err := dictFor(op, locs)
	if err != nil {
		return nil, err
	}
	return ihtDict(d, y, opts)
}

func ihtDict(d dict, y []float64, opts IHTOptions) (*Result, error) {
	m, n := d.rows(), d.cols()
	if len(y) != m {
		return nil, fmt.Errorf("cs: %d measurements for %d locations", len(y), m)
	}
	if opts.K <= 0 {
		return nil, errors.New("cs: IHT needs positive sparsity K")
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	alpha := make([]float64, n)
	// Per-iteration work buffers, hoisted so the loop allocates nothing.
	pred := make([]float64, m)
	r := make([]float64, m)
	g := make([]float64, n)
	gS := make([]float64, n)
	agS := make([]float64, m)
	idxScratch := make([]int, n)
	mask := make([]bool, n)
	prevRes := math.Inf(1)
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		// r = y − Φ̃α.
		if err := d.predict(pred, alpha); err != nil {
			return nil, err
		}
		for i := range r {
			r[i] = y[i] - pred[i]
		}
		rn := mat.Norm2(r)
		if math.Abs(prevRes-rn) < 1e-9 {
			break
		}
		prevRes = rn
		if err := d.corrT(g, r); err != nil {
			return nil, err
		}
		// Normalized-IHT step (Blumensath & Davies): the exact line-search
		// step restricted to the working support makes convergence robust
		// for the coherent point-sampled bases used here. The working
		// support is the current support, or the top-K gradient entries on
		// the first iteration.
		workSup := supportOf(alpha)
		if len(workSup) == 0 {
			workSup = topKIndicesInto(g, opts.K, idxScratch)
		}
		for _, j := range workSup {
			gS[j] = g[j]
		}
		if err := d.predict(agS, gS); err != nil {
			return nil, err
		}
		num := 0.0
		for _, j := range workSup {
			num += gS[j] * gS[j]
		}
		den := mat.Dot(agS, agS)
		for _, j := range workSup {
			gS[j] = 0
		}
		mu := 1.0
		if den > 0 {
			mu = num / den
		}
		for j := range alpha {
			alpha[j] += mu * g[j]
		}
		hardThresholdWith(alpha, opts.K, idxScratch, mask)
	}
	support := supportOf(alpha)
	// Debias: least squares on the final support.
	coef := make([]float64, len(support))
	if len(support) > 0 && len(support) <= m {
		sub := mat.New(m, len(support))
		if err := d.subInto(sub, support); err != nil {
			return nil, err
		}
		if ls, err := mat.LeastSquares(sub, y); err == nil {
			coef = ls
		} else {
			for i, j := range support {
				coef[i] = alpha[j]
			}
		}
	} else {
		for i, j := range support {
			coef[i] = alpha[j]
		}
	}
	return packResultDict(d, support, coef, y, iters)
}

// CoSaMPOptions tunes CoSaMP, which runs at most 50 iterations and stops
// early once the residual norm, or its change, falls below 1e-9.
type CoSaMPOptions struct {
	K int // target sparsity (required)
}

// CoSaMPOp (Needell & Tropp) recovers a K-sparse vector by repeatedly
// merging the 2K strongest residual correlations into the support, solving
// least squares, and pruning back to K.
func CoSaMPOp(op basis.Operator, locs []int, y []float64, opts CoSaMPOptions) (*Result, error) {
	d, err := dictFor(op, locs)
	if err != nil {
		return nil, err
	}
	return cosampDict(d, y, opts)
}

func cosampDict(d dict, y []float64, opts CoSaMPOptions) (*Result, error) {
	m, n := d.rows(), d.cols()
	if len(y) != m {
		return nil, fmt.Errorf("cs: %d measurements for %d locations", len(y), m)
	}
	if opts.K <= 0 {
		return nil, errors.New("cs: CoSaMP needs positive sparsity K")
	}
	if 3*opts.K > m {
		// The merged LS needs ≤ m columns; clamp like OMP does.
		opts.K = m / 3
		if opts.K == 0 {
			opts.K = 1
		}
	}
	const maxIter, tol = 50, 1e-9
	alpha := make([]float64, n)
	resid := mat.CloneVec(y)
	// Per-iteration work buffers, hoisted so the loop allocates only inside
	// the least-squares solve. The merged candidate set never exceeds
	// 3K (current K-sparse support plus 2K proxy picks).
	proxy := make([]float64, n)
	idxScratch := make([]int, n)
	mask := make([]bool, n)
	maxMerge := 3 * opts.K
	if maxMerge > m {
		maxMerge = m
	}
	subBuf := make([]float64, m*maxMerge)
	idx := make([]int, 0, maxMerge)
	coef := make([]float64, 0, maxMerge)
	pred := make([]float64, m)
	iters := 0
	prev := math.Inf(1)
	for ; iters < maxIter; iters++ {
		rn := mat.Norm2(resid)
		if rn <= tol || math.Abs(prev-rn) < tol {
			break
		}
		prev = rn
		// Proxy = Φ̃ᵀ r; take 2K strongest plus current support.
		if err := d.corrT(proxy, resid); err != nil {
			return nil, err
		}
		for _, j := range supportOf(alpha) {
			mask[j] = true
		}
		for _, j := range topKIndicesInto(proxy, 2*opts.K, idxScratch) {
			mask[j] = true
		}
		idx = idx[:0]
		for j := 0; j < n; j++ {
			if mask[j] {
				mask[j] = false
				if len(idx) < maxMerge {
					idx = append(idx, j)
				}
			}
		}
		if len(idx) == 0 {
			break
		}
		sub := &mat.Matrix{Rows: m, Cols: len(idx), Data: subBuf[:m*len(idx)]}
		if err := d.subInto(sub, idx); err != nil {
			return nil, err
		}
		ls, err := mat.LeastSquares(sub, y)
		if err != nil {
			break // rank-deficient merge; keep the previous estimate
		}
		// Prune to K.
		for j := range alpha {
			alpha[j] = 0
		}
		for i, j := range idx {
			alpha[j] = ls[i]
		}
		hardThresholdWith(alpha, opts.K, idxScratch, mask)
		// Update residual from the pruned estimate.
		support := supportOf(alpha)
		sub2 := &mat.Matrix{Rows: m, Cols: len(support), Data: subBuf[:m*len(support)]}
		if err := d.subInto(sub2, support); err != nil {
			return nil, err
		}
		coef = coef[:len(support)]
		for i, j := range support {
			coef[i] = alpha[j]
		}
		if err := mat.MulVecInto(pred, sub2, coef); err != nil {
			return nil, err
		}
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
	}
	support := supportOf(alpha)
	coef = make([]float64, len(support))
	for i, j := range support {
		coef[i] = alpha[j]
	}
	return packResultDict(d, support, coef, y, iters)
}

// BPDN solves basis pursuit denoising via the LP relaxation with a noise
// allowance: minimize ‖α‖₁ subject to |Φ̃α − y|ᵢ ≤ eps for every
// measurement (an L∞ fidelity box, which keeps the problem a plain LP).
// Standard form uses α = u − v and slack s: Φ̃(u−v) + s = y + eps,
// 0 ≤ s ≤ 2·eps, encoded with an extra slack pair.
func BPDN(phi *mat.Matrix, locs []int, y []float64, eps, zeroTol float64) (*Result, error) {
	if eps < 0 {
		return nil, errors.New("cs: BPDN needs eps >= 0")
	}
	if eps == 0 {
		return BasisPursuit(phi, locs, y, zeroTol)
	}
	a, err := sensingMatrix(phi, locs)
	if err != nil {
		return nil, err
	}
	m, n := a.Rows, a.Cols
	if len(y) != m {
		return nil, fmt.Errorf("cs: %d measurements for %d locations", len(y), m)
	}
	// Variables: u(n), v(n), s(m), t(m) with
	//   Φ̃(u−v) + s           = y + eps        (upper bound)
	//   s + t                 = 2·eps          (s ≤ 2eps)
	// all variables ≥ 0. Objective Σu + Σv.
	nv := 2*n + 2*m
	rows := 2 * m
	prob := lp.Problem{
		Rows: rows, Cols: nv,
		A: make([]float64, rows*nv),
		B: make([]float64, rows),
		C: make([]float64, nv),
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			prob.A[i*nv+j] = a.Data[i*n+j]
			prob.A[i*nv+n+j] = -a.Data[i*n+j]
		}
		prob.A[i*nv+2*n+i] = 1
		prob.B[i] = y[i] + eps
		// Row m+i: s_i + t_i = 2 eps.
		prob.A[(m+i)*nv+2*n+i] = 1
		prob.A[(m+i)*nv+2*n+m+i] = 1
		prob.B[m+i] = 2 * eps
	}
	for j := 0; j < 2*n; j++ {
		prob.C[j] = 1
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("cs: BPDN LP failed: %w", err)
	}
	support := make([]int, 0)
	coef := make([]float64, 0)
	for j := 0; j < n; j++ {
		v := sol.X[j] - sol.X[n+j]
		if math.Abs(v) > zeroTol {
			support = append(support, j)
			coef = append(coef, v)
		}
	}
	return packResultDict(&denseDict{phi: phi, a: a}, support, coef, y, sol.Iterations)
}

// --- helpers -------------------------------------------------------------------

// hardThresholdWith zeroes all but the k largest-magnitude entries in
// place, on caller-provided scratch so hot loops can run it without
// allocating. idxScratch must have len(v) entries and mask must be an
// all-false []bool of len(v); the mask is restored to all-false before
// returning.
func hardThresholdWith(v []float64, k int, idxScratch []int, mask []bool) {
	keep := topKIndicesInto(v, k, idxScratch)
	for _, j := range keep {
		mask[j] = true
	}
	for j := range v {
		if !mask[j] {
			v[j] = 0
		}
	}
	for _, j := range keep {
		mask[j] = false
	}
}

// topKIndicesInto returns the indices of the k largest |v| entries in a
// caller-provided scratch slice of len(v); the returned slice aliases
// idxScratch and is valid until the next call that reuses the scratch.
func topKIndicesInto(v []float64, k int, idxScratch []int) []int {
	if k <= 0 {
		return nil
	}
	if k > len(v) {
		k = len(v)
	}
	idx := idxScratch[:len(v)]
	for i := range idx {
		idx[i] = i
	}
	// Partial selection.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if math.Abs(v[idx[j]]) > math.Abs(v[idx[best]]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// supportOf returns the sorted nonzero indices.
func supportOf(v []float64) []int {
	var out []int
	for j, x := range v {
		if x != 0 {
			out = append(out, j)
		}
	}
	return out
}
