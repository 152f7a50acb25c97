package cs

// Sparse decoders beside OMP and CHS: the paper's ℓ1 program (BPDN), and
// iterative hard thresholding (IHT) and CoSaMP, the standard greedy
// alternatives a production middleware would ship so brokers can trade
// robustness against compute (the A4 ablation compares all four).

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/basis"
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
// per iteration and very robust to coherent dictionaries. That pair
// (predict, correlate) is one synthesis and one analysis of the operator.
func IHTOp(op basis.Operator, locs []int, y []float64, opts IHTOptions) (*Result, error) {
	d, err := newOpDict(op, locs)
	if err != nil {
		return nil, err
	}
	return ihtDict(d, y, opts)
}

func ihtDict(d *opDict, y []float64, opts IHTOptions) (*Result, error) {
	m, n := d.rows(), d.n
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
		d.predict(pred, alpha)
		for i := range r {
			r[i] = y[i] - pred[i]
		}
		rn := mat.Norm2(r)
		if math.Abs(prevRes-rn) < 1e-9 {
			break
		}
		prevRes = rn
		d.corrT(g, r)
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
		d.predict(agS, gS)
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
	// Debias: least squares on the final support, unless its columns are
	// dependent or outnumber the readings.
	coef := make([]float64, len(support))
	for i, j := range support {
		coef[i] = alpha[j]
	}
	var qr mat.IncrementalQR
	if len(support) > 0 && d.factorInto(&qr, support, nil) == nil {
		if ls, err := qr.Solve(y); err == nil {
			coef = ls
		}
	}
	return packResult(d, support, coef, y, iters)
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
	d, err := newOpDict(op, locs)
	if err != nil {
		return nil, err
	}
	return cosampDict(d, y, opts)
}

func cosampDict(d *opDict, y []float64, opts CoSaMPOptions) (*Result, error) {
	m, n := d.rows(), d.n
	if len(y) != m {
		return nil, fmt.Errorf("cs: %d measurements for %d locations", len(y), m)
	}
	if opts.K <= 0 {
		return nil, errors.New("cs: CoSaMP needs positive sparsity K")
	}
	if 3*opts.K > m {
		opts.K = max(m/3, 1) // the merged LS needs ≤ m columns
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
	maxMerge := min(3*opts.K, m)
	var qr mat.IncrementalQR
	idx := make([]int, 0, maxMerge)
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
		d.corrT(proxy, resid)
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
		if d.factorInto(&qr, idx, nil) != nil {
			break // rank-deficient merge; keep the previous estimate
		}
		ls, err := qr.Solve(y)
		if err != nil {
			return nil, err
		}
		// Prune to K.
		clear(alpha)
		for i, j := range idx {
			alpha[j] = ls[i]
		}
		hardThresholdWith(alpha, opts.K, idxScratch, mask)
		// Update residual from the pruned estimate: pred = Φ̃_support α,
		// accumulated column by column.
		clear(pred)
		for _, j := range supportOf(alpha) {
			c, err := d.gatherCol(j)
			if err != nil {
				return nil, err
			}
			for i, v := range c {
				pred[i] += v * alpha[j]
			}
		}
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
	}
	support := supportOf(alpha)
	coef := make([]float64, len(support))
	for i, j := range support {
		coef[i] = alpha[j]
	}
	return packResult(d, support, coef, y, iters)
}

// BPDN recovers the minimum-ℓ1 coefficient vector that explains the
// readings to within eps (paper Eq. 9 with a noise allowance, basis
// pursuit denoising):
//
//	min ‖α‖₁  s.t.  ‖y − Φ̃α‖₂ ≤ eps,
//
// and eps = 0 is exact basis pursuit. NoiseTol turns the readings' noise
// std-devs into the eps at which CHS stops as well.
//
// It solves the program matrix-free by Douglas–Rachford splitting between
// soft-thresholding and the projection onto the constraint set. An
// orthonormal Φ sampled at distinct locations has orthonormal rows
// (Φ̃Φ̃ᵀ = I), so the projection is closed-form: r = Φ̃v − y, and
// v −= Φ̃ᵀr·(1 − eps/‖r‖) when ‖r‖ > eps. Each iteration therefore costs
// one synthesis gathered at the sensors and one analysis of the scattered
// residual, the two kernels CHS runs. Duplicate locations break Φ̃Φ̃ᵀ = I
// and are rejected. The step is 0.1·‖Φ̃ᵀy‖∞, and the solve stops once an
// iteration moves the iterate by at most 1e-9 of the iterate's norm.
// Neither carries an absolute constant, and the solve runs on the
// readings rescaled by a power of two to unit size, so scaling y and eps
// by a power of two scales α exactly. The returned α is the
// soft-thresholded iterate, exactly zero off its support. A solve still
// moving after 20,000 iterations is an error.
func BPDN(op basis.Operator, locs []int, y []float64, eps float64) (*Result, error) {
	if !(eps >= 0) {
		return nil, errors.New("cs: BPDN needs eps >= 0")
	}
	d, err := newOpDict(op, locs)
	if err != nil {
		return nil, err
	}
	m, n := d.rows(), d.n
	if len(y) != m {
		return nil, fmt.Errorf("cs: %d measurements for %d locations", len(y), m)
	}
	if hasDuplicates(locs, make([]bool, n)) {
		return nil, errors.New("cs: BPDN needs distinct locations")
	}
	top := 0.0
	for _, v := range y {
		top = math.Max(top, math.Abs(v))
	}
	if math.IsNaN(top) || math.IsInf(top, 0) {
		return nil, errors.New("cs: BPDN needs finite readings")
	}
	// Solve at unit scale: a power-of-two rescale is exact, and it keeps
	// the iterates' squared norms clear of overflow and underflow.
	_, e := math.Frexp(top)
	ys := make([]float64, m)
	for i, v := range y {
		ys[i] = math.Ldexp(v, -e)
	}
	epsS := math.Ldexp(eps, -e)
	if mat.Norm2(ys) <= epsS {
		return zeroResult(d, y, 0) // α = 0 is feasible, and ℓ1-minimal
	}

	const maxIter, relTol = 20000, 1e-9
	z := make([]float64, n) // the Douglas–Rachford variable
	a := make([]float64, n) // soft-thresholded z: the estimate
	v := make([]float64, n)
	g := make([]float64, n)
	r := make([]float64, m)
	d.corrT(g, ys)
	gamma := 0.0
	for _, gj := range g {
		gamma = math.Max(gamma, math.Abs(gj))
	}
	gamma *= 0.1
	for iters := 1; iters <= maxIter; iters++ {
		for j, zj := range z {
			a[j] = math.Copysign(math.Max(math.Abs(zj)-gamma, 0), zj)
			v[j] = 2*a[j] - zj
		}
		// v ← its projection onto ‖ys − Φ̃v‖ ≤ epsS.
		d.predict(r, v)
		for i := range r {
			r[i] -= ys[i]
		}
		if rn := mat.Norm2(r); rn > epsS {
			d.corrT(g, r)
			s := 1 - epsS/rn
			for j := range v {
				v[j] -= s * g[j]
			}
		}
		step, norm := 0.0, 0.0
		for j := range z {
			delta := v[j] - a[j]
			z[j] += delta
			step += delta * delta
			norm += a[j] * a[j]
		}
		if step <= relTol*relTol*norm {
			support := supportOf(a)
			coef := make([]float64, len(support))
			for s, j := range support {
				if coef[s] = math.Ldexp(a[j], e); math.IsInf(coef[s], 0) {
					return nil, errors.New("cs: BPDN coefficients overflow float64")
				}
			}
			return packResult(d, support, coef, y, iters)
		}
	}
	return nil, fmt.Errorf("cs: BPDN did not converge in %d iterations", maxIter)
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
