package cs

import (
	"errors"
	"math"

	"repro/internal/basis"
	"repro/internal/mat"
)

// ZeroFill returns the Υ: R^M → R^N operator of the Fig. 6 algorithm that
// CHSOp uses: it lifts a residual known only at the M sensor locations to
// a full-length field by placing the values at their locations and zeros
// elsewhere. For an orthonormal Φ this makes the coefficient scan
// α_r = Φᵀ e exactly the correlation used by matching pursuit.
func ZeroFill(n int) func(locs []int, vals []float64) ([]float64, error) {
	return func(locs []int, vals []float64) ([]float64, error) {
		if len(locs) != len(vals) {
			return nil, errors.New("cs: locs/vals length mismatch")
		}
		out := make([]float64, n)
		for i, k := range locs {
			if k < 0 || k >= n {
				return nil, ErrBadSupport
			}
			out[k] = vals[i]
		}
		return out, nil
	}
}

// CHSOptions configures the Compressive Heterogeneous Sensing algorithm.
type CHSOptions struct {
	// MaxIter bounds the outer while loop (default 32).
	MaxIter int
	// PerIter is how many new coefficient indices are admitted to J per
	// iteration — step (c)'s "subset of coefficient indices" (default 1).
	PerIter int
	// Tol stops iteration when the sensor-residual norm falls below it.
	Tol float64
	// MaxSupport caps |J| (default: number of measurements).
	MaxSupport int
	// V is the sensor-noise covariance; when non-nil the coefficients are
	// solved with GLS (Fig. 6 step e-ii) instead of OLS (step e-i).
	V *mat.Matrix
	// SeedSupport warm-starts the decode from a previously recovered
	// support (Result.Support, in admission order): the seed columns are
	// folded into the incremental-QR factors and the sensor residual
	// deflated before the first greedy iteration, so a support that still
	// explains the measurements costs one residual check plus the final
	// solve instead of a full decode. A seed whose support and admission
	// order match what the cold decode would have found yields a
	// bit-identical Alpha/Support/Xhat/Residual (only Iterations differs):
	// corrT scans never touch the QR factors or the residual, so skipping
	// them changes no arithmetic. Invalid seeds (out-of-range, duplicate,
	// longer than MaxSupport) and rank-deficient seeds are discarded and
	// the decode restarts cold — a stale seed can cost, never corrupt.
	SeedSupport []int
	// SeedRelTol guards warm starts against field drift: when > 0 and the
	// post-seed residual norm exceeds SeedRelTol·‖y‖, the seed is
	// discarded and the decode restarts cold. 0 keeps any seed whose
	// columns are linearly independent (the greedy loop still refines it).
	SeedRelTol float64
}

// CHSOp runs the paper's Fig. 6 "Compressive Heterogeneous Sensing"
// algorithm: starting from an empty support it repeatedly (a) interpolates
// the sensor residual to the full grid with Υ, (b) analyzes it in the
// basis, (c–d) admits the most significant coefficients to the index set J,
// (e) re-solves the coefficients on J with OLS or GLS, and (f) updates the
// residual, until the stop criterion is met. It returns the reconstruction
// x̂ = Φ_K α_K along with the recovered support.
//
// Through a matrix-free basis operator the step-(b) full-basis analysis
// Φᵀe becomes one fast transform and each admitted column one synthesis —
// the combination that makes 1024² broker reconstructions feasible (the
// dense Φ there would be ~8 TB).
func CHSOp(op basis.Operator, locs []int, y []float64, opts CHSOptions) (*Result, error) {
	d, err := dictFor(op, locs)
	if err != nil {
		return nil, err
	}
	return chsDict(d, locs, y, opts)
}

// hasDuplicateLocs reports whether any sensor location appears twice.
func hasDuplicateLocs(locs []int) bool {
	seen := make(map[int]struct{}, len(locs))
	for _, l := range locs {
		if _, ok := seen[l]; ok {
			return true
		}
		seen[l] = struct{}{}
	}
	return false
}

func chsDict(d dict, locs []int, y []float64, opts CHSOptions) (*Result, error) {
	if len(y) != d.rows() {
		return nil, errors.New("cs: measurement/location length mismatch")
	}
	n := d.cols()
	if opts.MaxIter <= 0 {
		opts.MaxIter = 32
	}
	if opts.PerIter <= 0 {
		opts.PerIter = 1
	}
	if opts.MaxSupport <= 0 || opts.MaxSupport > len(locs) {
		opts.MaxSupport = len(locs)
	}
	// Under ZeroFill interpolation, steps (a)+(b) compose to exactly Φ̃ᵀe_r
	// — one scatter+analysis with no interpolant allocation.
	// The fused path is taken only on the matrix-free dictionary (where it
	// is bit-identical to ZeroFill+analyzeFull, both being a scatter into
	// the same buffer followed by one ApplyTranspose); the dense dictionary
	// keeps the historical two-step arithmetic so its decodes stay
	// bit-identical to the pre-operator implementation. Duplicate sensor
	// locations disable it: corrT accumulates where ZeroFill overwrites.
	od, fused := d.(*opDict)
	fused = fused && !hasDuplicateLocs(locs)
	interp := ZeroFill(d.signalDim())

	// Step 1: J = ∅, e_r = x_S. The growing-support OLS of step (e) is kept
	// as an incrementally updated QR factorization: each admitted column is
	// folded in with a rank-1 update and the sensor residual is deflated in
	// O(M), instead of copying Φ̃_J and refactorizing from scratch every
	// iteration. Coefficients are materialized once, after the loop.
	resid := mat.CloneVec(y)
	support := make([]int, 0, opts.MaxSupport)
	inSupport := make([]bool, n)
	qr, err := mat.NewIncrementalQR(d.rows(), opts.MaxSupport)
	if err != nil {
		return nil, err
	}
	eNew := make([]float64, 0)
	alphaR := make([]float64, n)
	col := make([]float64, d.rows())
	iters := 0

	// Warm start: fold the seed support into the factors before the first
	// greedy iteration. When the seeded support still explains the
	// measurements (residual under the seed tolerance, or the support cap
	// already reached), the loop below exits immediately and the decode
	// costs one residual check plus the final solve.
	if validSeed(opts.SeedSupport, n, opts.MaxSupport) {
		var ok bool
		support, ok, err = seedFactors(d, qr, resid, col, support, inSupport, opts.SeedSupport)
		if err != nil {
			return nil, err
		}
		if ok && opts.SeedRelTol > 0 && mat.Norm2(resid) > opts.SeedRelTol*mat.Norm2(y) {
			ok = false // the field drifted past what the old support explains
		}
		if !ok {
			qr, resid, support, err = coldRestart(d, y, opts.MaxSupport, support, inSupport)
			if err != nil {
				return nil, err
			}
		}
	}

outer:
	for iters < opts.MaxIter && len(support) < opts.MaxSupport {
		if mat.Norm2(resid) <= opts.Tol {
			break
		}
		iters++
		// (a) e_new = Υ(e_r); (b) α_r = Φ† e_new; Φ orthonormal ⇒ Φ† = Φᵀ.
		if fused {
			if err := od.corrT(alphaR, resid); err != nil {
				return nil, err
			}
		} else {
			eNew, err = interp(locs, resid)
			if err != nil {
				return nil, err
			}
			if err := d.analyzeFull(alphaR, eNew); err != nil {
				return nil, err
			}
		}
		// (c–e) admit the PerIter most significant unused coefficients,
		// folding each admitted column into the OLS factors. Support
		// identification always uses the unweighted fit: a GLS fit inside
		// the loop leaves large residual at the noisy sensors it
		// deliberately under-weights, and the step-(b) scan would then
		// admit atoms that chase that noise. The GLS weighting of Fig. 6
		// step (e-ii) is applied once, on the final support, below.
		added := 0
		for added < opts.PerIter && len(support) < opts.MaxSupport {
			best, bestJ := 0.0, -1
			for j := 0; j < n; j++ {
				if inSupport[j] {
					continue
				}
				if c := math.Abs(alphaR[j]); c > best {
					best, bestJ = c, j
				}
			}
			if bestJ < 0 || best == 0 {
				break
			}
			if err := d.col(col, bestJ); err != nil {
				return nil, err
			}
			if err := qr.Append(col); err != nil {
				// Rank-deficient admission: the column adds nothing the
				// factors don't already span. Keep the factorization as is
				// and stop — no retraction solve needed.
				break outer
			}
			support = append(support, bestJ)
			inSupport[bestJ] = true
			// (f) e_r = x_S − Φ̃_K α_K, maintained by deflating against the
			// newly orthogonalized direction.
			if _, err := qr.DeflateLatest(resid); err != nil {
				return nil, err
			}
			added++
		}
		if added == 0 {
			break // nothing significant left to admit
		}
	}

	if len(support) == 0 {
		return zeroResult(d, y, iters), nil
	}
	coef, err := qr.Solve(y)
	if err != nil {
		return nil, err
	}
	// Fig. 6 step (e-ii): for heterogeneous sensors, refit the recovered
	// support with the noise-covariance-weighted GLS estimate.
	if opts.V != nil {
		sub := mat.New(d.rows(), len(support))
		if err := d.subInto(sub, support); err != nil {
			return nil, err
		}
		if gcoef, err := mat.WeightedLeastSquares(sub, y, opts.V); err == nil {
			coef = gcoef
		}
	}
	return packResultDict(d, support, coef, y, iters)
}
