package cs

import (
	"errors"
	"math"

	"repro/internal/basis"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Why each CHS decode stopped, one counter per reason.
var (
	obsStopNoise   = obs.GetCounter("cs.chs.stop.noise_floor")
	obsStopSupport = obs.GetCounter("cs.chs.stop.support_cap")
	obsStopIters   = obs.GetCounter("cs.chs.stop.iteration_cap")
	obsStopRank    = obs.GetCounter("cs.chs.stop.rank_deficient")
	obsStopNone    = obs.GetCounter("cs.chs.stop.nothing_admissible")
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
	// NoiseTol turns the readings' noise std-devs into the tolerance at
	// which further atoms would only fit noise.
	Tol float64
	// MaxSupport caps |J| (default: number of measurements).
	MaxSupport int
	// Sigmas are the per-measurement noise std-devs; when non-nil the
	// coefficients are solved with GLS (Fig. 6 step e-ii) instead of OLS
	// (step e-i), each sigma floored at minSigma.
	Sigmas []float64
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

// minTol is the stopping tolerance of a noiseless decode, and the floor of
// NoiseTol.
const minTol = 1e-8

// NoiseTol is the discrepancy-principle stopping tolerance for a CHS decode
// of readings with noise std-devs sigmas: √(Σσᵢ²), the sensor-residual norm
// the noise alone leaves. Once the residual is down to it, every further
// atom fits noise, not the field. Each σᵢ is capped at 3× the readings'
// harmonic-mean σ (σᵢ² at 9× the harmonic mean of the σᵢ²), so a minority
// of readings claiming inflated noise barely moves the tolerance; honest
// spreads (σ within a factor of a few) are never clipped. A σ that is not
// positive and finite (NaN, ±Inf, ≤ 0) claims no noise and is left out. The
// result is finite and never below 1e-8, the tolerance of a noiseless
// decode, so nil or all-zero sigmas give exactly 1e-8.
func NoiseTol(sigmas []float64) float64 {
	n, inv := 0, 0.0
	for _, s := range sigmas {
		if s > 0 && s <= math.MaxFloat64 {
			n++
			inv += 1 / (s * s)
		}
	}
	if n == 0 {
		return minTol
	}
	limit := 9 * float64(n) / inv
	sum := 0.0
	for _, s := range sigmas {
		if s > 0 && s <= math.MaxFloat64 {
			sum += min(s*s, limit)
		}
	}
	return min(max(math.Sqrt(sum), minTol), math.MaxFloat64)
}

// CHSOp runs the paper's Fig. 6 "Compressive Heterogeneous Sensing"
// algorithm: starting from an empty support it repeatedly (a) interpolates
// the sensor residual to the full grid with Υ, (b) analyzes it in the
// basis, (c–d) admits the most significant coefficients to the index set J,
// (e) re-solves the coefficients on J with OLS or GLS, and (f) updates the
// residual, until the stop criterion is met. It returns the reconstruction
// x̂ = Φ_K α_K along with the recovered support.
//
// The step-(b) full-basis analysis Φᵀe is one fast transform of the
// operator and each admitted column one gather — the combination that
// makes 1024² broker reconstructions feasible (the dense Φ there would be
// ~8 TB).
//
// The decode's scratch comes from a pool of workspaces; the Result shares
// no memory with it.
func CHSOp(op basis.Operator, locs []int, y []float64, opts CHSOptions) (*Result, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.od.reset(op, locs); err != nil {
		return nil, err
	}
	return chsDict(&ws.od, ws, locs, y, opts)
}

// hasDuplicates reports whether any index (a sensor location, a seed
// atom) appears twice, marking indices in mark (all false, covering every
// index) and clearing its marks again before it returns.
func hasDuplicates(idx []int, mark []bool) bool {
	dup := false
	marked := 0
	for _, l := range idx {
		if mark[l] {
			dup = true
			break
		}
		mark[l] = true
		marked++
	}
	for _, l := range idx[:marked] {
		mark[l] = false
	}
	return dup
}

// chsDict runs the CHS loop on d with its scratch in ws.
func chsDict(d *opDict, ws *workspace, locs []int, y []float64, opts CHSOptions) (*Result, error) {
	if len(y) != d.rows() {
		return nil, errors.New("cs: measurement/location length mismatch")
	}
	n := d.n
	if opts.MaxIter <= 0 {
		opts.MaxIter = 32
	}
	if opts.PerIter <= 0 {
		opts.PerIter = 1
	}
	if opts.MaxSupport <= 0 || opts.MaxSupport > len(locs) {
		opts.MaxSupport = len(locs)
	}
	// Step 1: J = ∅, e_r = x_S. The growing-support OLS of step (e) is kept
	// as an incrementally updated QR factorization: each admitted column is
	// folded in with a rank-1 update and the sensor residual is deflated in
	// O(M), instead of copying Φ̃_J and refactorizing from scratch every
	// iteration. Coefficients are materialized once, after the loop.
	// The loop admits at most PerIter columns per iteration on top of the
	// seed, so the factors are sized to that, not to the support cap.
	cols := min(opts.MaxSupport, len(opts.SeedSupport)+opts.MaxIter*opts.PerIter)
	ws.resid = resized(ws.resid, len(y))
	resid := ws.resid
	copy(resid, y)
	support := make([]int, 0, cols)
	// The workspace slices are re-sliced to n so that the compiler sees
	// their length, which keeps bounds checks out of the argmax scan.
	inSupport := ws.marks(n)[:n]
	// Under ZeroFill interpolation, steps (a)+(b) compose to exactly Φ̃ᵀe_r
	// — one scatter+analysis with no interpolant allocation, or one
	// scattered analysis of the M values on a 2-D operator (equal to
	// ZeroFill + analysis to 1e-12 relative, bit for bit otherwise).
	// Duplicate sensor locations take the two steps apart instead: corrT
	// accumulates the readings of a repeated location where ZeroFill keeps
	// the last one. The duplicate scan borrows inSupport as its mark array
	// (the dictionary validated every location into [0,n)).
	fused := !hasDuplicates(locs, inSupport)
	interp := ZeroFill(n)
	qr := &ws.qr
	if err := qr.Reset(d.rows(), cols); err != nil {
		return nil, err
	}
	eNew := make([]float64, 0)
	ws.alphaR = resized(ws.alphaR, n)
	alphaR := ws.alphaR[:n]
	ws.col = resized(ws.col, d.rows())
	col := ws.col
	iters := 0

	// Warm start: fold the seed support into the factors before the first
	// greedy iteration. When the seeded support still explains the
	// measurements (residual under the seed tolerance, or the support cap
	// already reached), the loop below exits immediately and the decode
	// costs one residual check plus the final solve.
	if validSeed(opts.SeedSupport, n, opts.MaxSupport, inSupport) {
		var ok bool
		var err error
		support, ok, err = seedFactors(d, qr, resid, col, support, inSupport, opts.SeedSupport)
		if err != nil {
			return nil, err
		}
		if ok && opts.SeedRelTol > 0 && mat.Norm2(resid) > opts.SeedRelTol*mat.Norm2(y) {
			ok = false // the field drifted past what the old support explains
		}
		if !ok {
			if support, err = coldRestart(d, qr, resid, y, cols, support, inSupport); err != nil {
				return nil, err
			}
		}
	}

	var stop *obs.Counter
outer:
	for {
		switch {
		case len(support) >= opts.MaxSupport:
			stop = obsStopSupport
		case iters >= opts.MaxIter:
			stop = obsStopIters
		case mat.Norm2(resid) <= opts.Tol:
			stop = obsStopNoise
		}
		if stop != nil {
			break
		}
		iters++
		// (a) e_new = Υ(e_r); (b) α_r = Φ† e_new; Φ orthonormal ⇒ Φ† = Φᵀ.
		if fused {
			d.corrT(alphaR, resid)
		} else {
			var err error
			eNew, err = interp(locs, resid)
			if err != nil {
				return nil, err
			}
			d.op.ApplyTranspose(alphaR, eNew)
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
				stop = obsStopRank
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
			stop = obsStopNone // nothing significant left to admit
			break
		}
	}
	stop.Inc()

	if len(support) == 0 {
		return zeroResult(d, y, iters)
	}
	ws.coef = resized(ws.coef, qr.Len())
	coef := ws.coef
	if err := qr.SolveInto(coef, y); err != nil {
		return nil, err
	}
	// Fig. 6 step (e-ii): for heterogeneous sensors, refit the recovered
	// support with the noise-weighted GLS estimate.
	if opts.Sigmas != nil {
		sub := mat.New(d.rows(), len(support))
		if err := d.subInto(sub, support); err != nil {
			return nil, err
		}
		if gcoef, err := glsRefit(sub, y, opts.Sigmas); err == nil {
			coef = gcoef
		}
	}
	return packResult(d, support, coef, y, iters)
}

// minSigma floors each σ of a GLS refit: no reading gets an infinite weight.
const minSigma = 1e-4

// glsRefit is the GLS estimate on sub under the covariance diag(σ²).
func glsRefit(sub *mat.Matrix, y, sigmas []float64) ([]float64, error) {
	floored := make([]float64, len(sigmas))
	for i, s := range sigmas {
		floored[i] = max(s, minSigma)
	}
	return mat.WeightedLeastSquares(sub, y, floored)
}
