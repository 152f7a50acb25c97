package cs

import (
	"errors"
	"math"

	"repro/internal/basis"
	"repro/internal/mat"
	"repro/internal/obs"
)

// Why each greedy decode (CHSOp, and OMPOp, which runs the same loop)
// stopped, one counter per reason.
var (
	obsStopNoise   = obs.GetCounter("cs.chs.stop.noise_floor")
	obsStopSupport = obs.GetCounter("cs.chs.stop.support_cap")
	obsStopIters   = obs.GetCounter("cs.chs.stop.iteration_cap")
	obsStopRank    = obs.GetCounter("cs.chs.stop.rank_deficient")
	obsStopNone    = obs.GetCounter("cs.chs.stop.nothing_admissible")
)

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
// Steps (a) and (b) run as one correlation Φ̃ᵀe: Υ places the residual at
// the sensor locations (summing the readings of a repeated location, as
// the repeated rows of Φ̃ that the factors fit do) and zeros elsewhere, and
// the analysis is one fast transform of the operator; each admitted column
// is one gather — the combination that makes 1024² broker reconstructions
// feasible (the dense Φ there would be ~8 TB).
//
// The decode's scratch comes from a pool of workspaces; the Result shares
// no memory with it.
func CHSOp(op basis.Operator, locs []int, y []float64, opts CHSOptions) (*Result, error) {
	return pursue(op, locs, y, opts, false)
}

// pursue runs the greedy loop of chsDict on op sampled at locs, with its
// scratch in a pooled workspace.
func pursue(op basis.Operator, locs []int, y []float64, opts CHSOptions, byNorm bool) (*Result, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.od.reset(op, locs); err != nil {
		return nil, err
	}
	return chsDict(&ws.od, ws, y, opts, byNorm)
}

// chsDict runs the greedy loop on d with its scratch in ws: CHS, or with
// byNorm OMP, whose step (c) ranks each atom by |Φ̃ⱼᵀe| / ‖Φ̃ⱼ‖ and never
// admits one the sensors do not see (‖Φ̃ⱼ‖ = 0).
func chsDict(d *opDict, ws *workspace, y []float64, opts CHSOptions, byNorm bool) (*Result, error) {
	m, n := d.rows(), d.n
	if len(y) != m {
		return nil, errors.New("cs: measurement/location length mismatch")
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 32
	}
	if opts.PerIter <= 0 {
		opts.PerIter = 1
	}
	if opts.MaxSupport <= 0 || opts.MaxSupport > m {
		opts.MaxSupport = m
	}
	// Step 1: J = ∅, e_r = x_S. The growing-support OLS of step (e) is kept
	// as an incrementally updated QR factorization: each admitted column is
	// folded in with a rank-1 update and the sensor residual is deflated in
	// O(M), instead of copying Φ̃_J and refactorizing from scratch every
	// iteration. Coefficients are materialized once, after the loop.
	// The loop admits at most PerIter columns per iteration on top of the
	// seed, so the factors are sized to that, not to the support cap.
	cols := min(opts.MaxSupport, len(opts.SeedSupport)+opts.MaxIter*opts.PerIter)
	ws.resid = resized(ws.resid, m)
	resid := ws.resid
	copy(resid, y)
	support := make([]int, 0, cols)
	qr := &ws.qr
	if err := qr.Reset(m, cols); err != nil {
		return nil, err
	}
	ws.alphaR = resized(ws.alphaR, n)
	alphaR := ws.alphaR[:n] // a length the compiler sees, for OMP's loop
	ws.col = resized(ws.col, m)
	col := ws.col
	var norms []float64 // OMP's ‖Φ̃ⱼ‖, computed before the first scan
	iters := 0

	// Warm start: fold the seed support into the factors before the first
	// greedy iteration. When the seeded support still explains the
	// measurements (residual under the seed tolerance, or the support cap
	// already reached), the loop below exits immediately and the decode
	// costs one residual check plus the final solve.
	if validSeed(opts.SeedSupport, n, opts.MaxSupport, ws.marks(n)) {
		var ok bool
		var err error
		support, ok, err = seedFactors(d, qr, resid, col, support, opts.SeedSupport)
		if err != nil {
			return nil, err
		}
		if ok && opts.SeedRelTol > 0 && mat.Norm2(resid) > opts.SeedRelTol*mat.Norm2(y) {
			ok = false // the field drifted past what the old support explains
		}
		if !ok {
			if support, err = coldRestart(d, qr, resid, y, cols, support); err != nil {
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
		d.corrT(alphaR, resid)
		if byNorm {
			if norms == nil {
				ws.norms = resized(ws.norms, n)
				norms = ws.norms[:n]
				d.colNorms(norms)
			}
			// |α_r[j]| / ‖Φ̃ⱼ‖ is |α_r[j] / ‖Φ̃ⱼ‖| to the bit; a zero score
			// is never admitted.
			for j, s := range norms {
				if s == 0 {
					alphaR[j] = 0
				} else {
					alphaR[j] /= s
				}
			}
		}
		// The support's correlations are zeroed, so the step-(c) scan
		// needs no membership test: a zero never wins it.
		for _, j := range support {
			alphaR[j] = 0
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
			bestJ := mat.ArgmaxAbs(alphaR)
			if bestJ < 0 {
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
			alphaR[bestJ] = 0
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
	// support by GLS, keeping the OLS coefficients if that fails.
	if opts.Sigmas != nil {
		if gcoef, err := glsRefit(d, qr, support, y, opts.Sigmas); err == nil {
			coef = gcoef
		}
	}
	return packResult(d, support, coef, y, iters)
}

// minSigma floors each σ of a GLS refit: no reading gets an infinite weight.
const minSigma = 1e-4

// glsRefit is the GLS estimate on the support under the covariance
// diag(σ²), factored in qr: row i of Φ̃_support and of y divided by
// √(sᵢ²), sᵢ = max(σᵢ, minSigma), then OLS — the bits of a Cholesky
// whitening, which a multiply by 1/sᵢ would not keep.
func glsRefit(d *opDict, qr *mat.IncrementalQR, support []int, y, sigmas []float64) ([]float64, error) {
	if len(sigmas) != len(y) {
		return nil, mat.ErrShape
	}
	div, wy := make([]float64, len(y)), make([]float64, len(y))
	for i, s := range sigmas {
		s = max(s, minSigma)
		div[i] = math.Sqrt(s * s)
		wy[i] = y[i] / div[i]
	}
	if err := d.factorInto(qr, support, div); err != nil {
		return nil, err
	}
	return qr.Solve(wy)
}
