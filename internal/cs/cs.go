// Package cs implements the compressive-sensing core of SenseDroid (paper
// §4): recovery of a length-N signal x = Φα that is K-sparse in an
// orthonormal basis Φ from M ≪ N point measurements x_S = x(L) taken at
// sensor locations L, possibly corrupted by heterogeneous sensor noise.
//
// Decoders provided:
//   - OMPOp: orthogonal matching pursuit for Eq. (13), the workhorse.
//   - BasisPursuit: L1 minimization (Eq. 9) via the LP reformulation
//     (Eq. 10), solved with the internal simplex solver.
//   - CHSOp (chs.go): the iterative Compressive Heterogeneous Sensing
//     algorithm of Fig. 6, whose step (e) is the least-squares estimate of
//     Eq. (11), or of Eq. (12) for heterogeneous sensors.
//
// The greedy decoders take the basis as a basis.Operator. A dense basis
// matrix goes in through basis.FromMatrix, which routes to the dense
// reference kernels (dict.go).
package cs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/basis"
	"repro/internal/lp"
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
// Through a matrix-free basis operator the correlations and column
// extractions run in O(n log n) scatter/gather applies instead of dense
// M×N passes. A *basis.MatrixOp routes to the dense reference kernel.
func OMPOp(op basis.Operator, locs []int, y []float64, k int, tol float64) (*Result, error) {
	return OMPSeededOp(op, locs, y, k, tol, nil)
}

// OMPSeededOp is OMPOp warm-started from a previously recovered support
// (see Result.Support). Seed columns are folded into the incremental-QR
// factors before the first greedy iteration; an unchanged field then costs
// one residual check plus the final solve and is bit-identical to the cold
// decode. Invalid or rank-deficient seeds fall back to a cold start.
func OMPSeededOp(op basis.Operator, locs []int, y []float64, k int, tol float64, seed []int) (*Result, error) {
	d, err := dictFor(op, locs)
	if err != nil {
		return nil, err
	}
	return ompDict(d, y, k, tol, seed)
}

func ompDict(d dict, y []float64, k int, tol float64, seed []int) (*Result, error) {
	m, n := d.rows(), d.cols()
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
			qr, resid, support, err = coldRestart(d, y, k, support, inSupport)
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
			if err := d.colNorms(colNorm); err != nil {
				return nil, err
			}
		}
		iters++
		// Correlate residual with every column in one dictionary pass.
		if err := d.corrT(corr, resid); err != nil {
			return nil, err
		}
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
	return packResultDict(d, support, coef, y, iters)
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

// BasisPursuit recovers the minimum-L1 coefficient vector subject to the
// measurement constraint (paper Eq. 9), via the slack-variable LP of
// Eq. 10 expressed in standard form with the split α = u − v, u,v ≥ 0:
//
//	min Σu + Σv   s.t.  Φ̃(u − v) = x_S.
//
// Exact equality constraints make this appropriate for (near-)noiseless
// measurements; use OMP or CHS when noise is significant. zeroTol trims
// solver jitter from the returned support.
func BasisPursuit(phi *mat.Matrix, locs []int, y []float64, zeroTol float64) (*Result, error) {
	a, err := sensingMatrix(phi, locs)
	if err != nil {
		return nil, err
	}
	m, n := a.Rows, a.Cols
	if len(y) != m {
		return nil, fmt.Errorf("cs: %d measurements for %d locations", len(y), m)
	}
	prob := lp.Problem{
		Rows: m, Cols: 2 * n,
		A: make([]float64, m*2*n),
		B: mat.CloneVec(y),
		C: make([]float64, 2*n),
	}
	for j := 0; j < 2*n; j++ {
		prob.C[j] = 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			prob.A[i*2*n+j] = a.Data[i*n+j]
			prob.A[i*2*n+n+j] = -a.Data[i*n+j]
		}
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("cs: basis pursuit LP failed: %w", err)
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
