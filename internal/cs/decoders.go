package cs

// The decoder beside OMP and CHS: the paper's ℓ1 program (BPDN, Eq. 9),
// which the A4 ablation compares against OMP (Eq. 13).

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/mat"
)

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
