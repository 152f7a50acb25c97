// Package cs implements the compressive-sensing core of SenseDroid (paper
// §4): recovery of a length-N signal x = Φα that is K-sparse in an
// orthonormal basis Φ from M ≪ N point measurements x_S = x(L) taken at
// sensor locations L, possibly corrupted by heterogeneous sensor noise.
//
// Decoders provided:
//   - OMPOp: orthogonal matching pursuit for Eq. (13), the workhorse.
//   - BPDN (decoders.go): ℓ1 minimization (Eq. 9) within a noise allowance
//     eps, exact basis pursuit at eps = 0, solved matrix-free by
//     Douglas–Rachford splitting instead of the LP of Eq. 10.
//   - CHSOp (chs.go): the iterative Compressive Heterogeneous Sensing
//     algorithm of Fig. 6, whose step (e) is the least-squares estimate of
//     Eq. (11), or of Eq. (12) for heterogeneous sensors.
//
// Every decoder, and Diagnose, takes the basis as a basis.Operator and
// runs on the one matrix-free sensing dictionary of dict.go. A dense basis
// matrix goes in through basis.FromMatrix.
package cs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/basis"
	"repro/internal/mat"
)

// Decoder failure modes.
var (
	ErrNoMeasurements = errors.New("cs: no measurements")
	ErrBadSupport     = errors.New("cs: invalid support index")
)

// Result is the outcome of a sparse recovery.
type Result struct {
	Alpha []float64 // recovered coefficients, length N (zero off support)
	// Support holds the indices of the recovered nonzero coefficients J,
	// in admission order. Feeding it back as the seed of the next decode
	// (OMPSeededOp / CHSOptions.SeedSupport) warm-starts the solver: for an
	// unchanged field the warm decode is bit-identical to a cold one and
	// skips the greedy search entirely.
	Support    []int
	Xhat       []float64 // reconstructed signal Φ·Alpha, length N
	Residual   float64   // ‖x_S − Φ̃_K α_K‖₂ at the sensor locations
	Iterations int
}

// OMPOp recovers a K-sparse coefficient vector from measurements y taken at
// locations locs, using orthogonal matching pursuit (Tropp & Gilbert; the
// solver the paper names for Eq. 13). It stops after k atoms or when the
// residual norm drops below tol.
//
// The per-iteration work is the incremental fast path: the correlation scan
// is one Φ̃ᵀr pass, the selected column is folded into a rank-1 updated QR
// factorization, and the residual is deflated in O(M) — no per-iteration
// submatrix copy or full refactorization. The least-squares coefficients
// are solved once, at the end, from the accumulated factors.
//
// The correlations and column extractions run as O(n log n) scatter/gather
// applies of the operator instead of dense M×N passes.
func OMPOp(op basis.Operator, locs []int, y []float64, k int, tol float64) (*Result, error) {
	return OMPSeededOp(op, locs, y, k, tol, nil)
}

// OMPSeededOp is OMPOp warm-started from a previously recovered support
// (see Result.Support). Seed columns are folded into the incremental-QR
// factors before the first greedy iteration; an unchanged field then costs
// one residual check plus the final solve and is bit-identical to the cold
// decode. Invalid or rank-deficient seeds fall back to a cold start.
func OMPSeededOp(op basis.Operator, locs []int, y []float64, k int, tol float64, seed []int) (*Result, error) {
	d, err := newOpDict(op, locs)
	if err != nil {
		return nil, err
	}
	return ompDict(d, y, k, tol, seed)
}

func ompDict(d *opDict, y []float64, k int, tol float64, seed []int) (*Result, error) {
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
	resid := mat.CloneVec(y)
	corr := make([]float64, n)
	col := make([]float64, m)
	support := make([]int, 0, k)
	inSupport := make([]bool, n)
	iters := 0
	// Warm start: replay the seed's Append/Deflate sequence before the
	// first correlation scan. A seed that fills the support (or already
	// drives the residual under tol) skips the scans — and the column-norm
	// pass below — entirely.
	if validSeed(seed, n, k, inSupport) {
		var ok bool
		support, ok, err = seedFactors(d, qr, resid, col, support, inSupport, seed)
		if err != nil {
			return nil, err
		}
		if !ok {
			support, err = coldRestart(d, qr, resid, y, k, support, inSupport)
			if err != nil {
				return nil, err
			}
		}
	}
	// Column norms for normalized correlation, computed lazily before the
	// first scan (values are independent of when they are computed, so the
	// cold decode is unchanged arithmetic in the original order).
	var colNorm []float64
	for len(support) < k {
		if mat.Norm2(resid) <= tol && len(support) > 0 {
			break
		}
		if colNorm == nil {
			colNorm = make([]float64, n)
			d.colNorms(colNorm)
		}
		iters++
		// Correlate residual with every column in one dictionary pass.
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
			// The chosen column is linearly dependent on the current support:
			// it cannot reduce the residual, so stop growing. The factors
			// already held are reused as-is — no second solve pass needed.
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
		// Zero signal.
		return zeroResult(d, y, iters), nil
	}
	coef, err := qr.Solve(y)
	if err != nil {
		return nil, err
	}
	return packResult(d, support, coef, y, iters)
}

// OMPCenteredOp recovers a signal whose prior mean mu (length N) is known —
// the right decoder for a PCA basis learned from historical traces, whose
// columns span the variation *around* the mean: the measurements are
// mean-centered before decoding and the mean is added back to Xhat.
// Alpha/Support/Residual describe the centered component.
func OMPCenteredOp(op basis.Operator, locs []int, y []float64, mu []float64, k int, tol float64) (*Result, error) {
	yc, err := centerMeasurements(locs, y, mu, op.Dim())
	if err != nil {
		return nil, err
	}
	res, err := OMPOp(op, locs, yc, k, tol)
	if err != nil {
		return nil, err
	}
	for i := range res.Xhat {
		res.Xhat[i] += mu[i]
	}
	return res, nil
}

func centerMeasurements(locs []int, y, mu []float64, dim int) ([]float64, error) {
	if len(mu) != dim {
		return nil, fmt.Errorf("cs: mean length %d, want %d", len(mu), dim)
	}
	yc := make([]float64, len(y))
	for i, l := range locs {
		if l < 0 || l >= len(mu) {
			return nil, fmt.Errorf("cs: location %d out of range [0,%d)", l, len(mu))
		}
		yc[i] = y[i] - mu[l]
	}
	return yc, nil
}

// RandomLocations draws m distinct sensor locations uniformly from
// {0,…,n−1} — the broker's "stochastic (random) spatial sampling".
func RandomLocations(rng *rand.Rand, n, m int) ([]int, error) {
	if m > n {
		return nil, fmt.Errorf("cs: cannot draw %d distinct locations from %d", m, n)
	}
	if m < 0 {
		return nil, errors.New("cs: negative measurement count")
	}
	return rng.Perm(n)[:m], nil
}

// Measure samples the signal x at the given locations and adds Gaussian
// noise with per-measurement standard deviations sigmas (nil for
// noiseless; a single-element slice broadcasts).
func Measure(x []float64, locs []int, rng *rand.Rand, sigmas []float64) ([]float64, error) {
	y := make([]float64, len(locs))
	for i, k := range locs {
		if k < 0 || k >= len(x) {
			return nil, fmt.Errorf("cs: location %d out of range [0,%d)", k, len(x))
		}
		y[i] = x[k]
		if len(sigmas) > 0 {
			s := sigmas[0]
			if len(sigmas) > 1 {
				s = sigmas[i]
			}
			if s > 0 {
				y[i] += rng.NormFloat64() * s
			}
		}
	}
	return y, nil
}

// ChooseKCrossValOp picks the sparsity K that minimizes held-out
// measurement error: it splits the measurements into a training and
// validation set, runs OMP at each K in [1, kMax], and returns the K whose
// reconstruction best predicts the held-out sensors. This automates the
// paper's "pick an optimal K such that the total error ε is minimal"
// guidance without needing ground truth.
func ChooseKCrossValOp(op basis.Operator, locs []int, y []float64, kMax int, holdout float64, rng *rand.Rand) (int, error) {
	m := len(locs)
	if m < 4 {
		return 0, errors.New("cs: too few measurements for cross-validation")
	}
	nVal := int(math.Round(float64(m) * holdout))
	if nVal < 1 {
		nVal = 1
	}
	if nVal > m-2 {
		nVal = m - 2
	}
	perm := rng.Perm(m)
	valIdx, trainIdx := perm[:nVal], perm[nVal:]
	trLocs := make([]int, len(trainIdx))
	trY := make([]float64, len(trainIdx))
	for i, p := range trainIdx {
		trLocs[i], trY[i] = locs[p], y[p]
	}
	bestK, bestErr := 1, math.Inf(1)
	if kMax > len(trLocs) {
		kMax = len(trLocs)
	}
	for k := 1; k <= kMax; k++ {
		res, err := OMPOp(op, trLocs, trY, k, 0)
		if err != nil {
			continue
		}
		// Validation error at held-out sensors.
		e := 0.0
		for _, p := range valIdx {
			d := y[p] - res.Xhat[locs[p]]
			e += d * d
		}
		if e < bestErr {
			bestErr, bestK = e, k
		}
	}
	return bestK, nil
}
