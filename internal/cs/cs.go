// Package cs implements the compressive-sensing core of SenseDroid (paper
// §4): recovery of a length-N signal x = Φα that is K-sparse in an
// orthonormal basis Φ from M ≪ N point measurements x_S = x(L) taken at
// sensor locations L, possibly corrupted by heterogeneous sensor noise.
//
// Decoders provided:
//   - CHSOp (chs.go): the iterative Compressive Heterogeneous Sensing
//     algorithm of Fig. 6, whose step (e) is the least-squares estimate of
//     Eq. (11), or of Eq. (12) for heterogeneous sensors.
//   - OMPOp: orthogonal matching pursuit for Eq. (13). With one index
//     admitted per iteration it is CHS's loop, run with OMP's selection
//     rule: there is one greedy pursuit in the package.
//   - BPDN (decoders.go): ℓ1 minimization (Eq. 9) within a noise allowance
//     eps, exact basis pursuit at eps = 0, solved matrix-free by
//     Douglas–Rachford splitting instead of the LP of Eq. 10.
//   - DecodeSpatioTemporal (sequence.go): the joint decode of a T-step
//     sequence in the temporal⊗spatial basis.
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
)

// Decoder failure modes.
var (
	ErrNoMeasurements = errors.New("cs: no measurements")
	ErrBadSupport     = errors.New("cs: invalid support index")
	// ErrNonFinite: the decode's α, x̂ or residual overflowed or is NaN.
	ErrNonFinite = errors.New("cs: decode is not finite")
)

// Result is the outcome of a sparse recovery.
type Result struct {
	Alpha []float64 // recovered coefficients, length N (zero off support)
	// Support holds the indices of the recovered nonzero coefficients J,
	// in admission order. Feeding it back as the seed of the next CHS
	// decode (CHSOptions.SeedSupport) warm-starts the solver: for an
	// unchanged field the warm decode is bit-identical to a cold one and
	// skips the greedy search entirely.
	Support    []int
	Xhat       []float64 // reconstructed signal Φ·Alpha, length N
	Residual   float64   // ‖x_S − Φ̃_K α_K‖₂ at the sensor locations
	Iterations int
}

// OMPOp recovers a K-sparse coefficient vector from measurements y taken at
// locations locs, using orthogonal matching pursuit (Tropp & Gilbert; the
// solver the paper names for Eq. 13). It stops after k atoms, when no atom
// is left that reduces the residual, or once the residual norm is at most
// tol — at once, with the zero estimate, if ‖y‖ ≤ tol.
//
// OMP is CHSOp's loop admitting one index per iteration, with OMP's
// selection rule: atom j scores |Φ̃ⱼᵀr| / ‖Φ̃ⱼ‖, and an atom the sensors do
// not see (‖Φ̃ⱼ‖ = 0) is never admitted. The column norms are computed once
// per decode, before the first scan. Each iteration is one Φ̃ᵀr pass, a
// rank-1 update of the incremental QR factors and an O(M) deflation of the
// residual; the least-squares coefficients are solved once, at the end.
func OMPOp(op basis.Operator, locs []int, y []float64, k int, tol float64) (*Result, error) {
	if k <= 0 {
		return nil, errors.New("cs: sparsity k must be positive")
	}
	return pursue(op, locs, y, CHSOptions{MaxIter: k, MaxSupport: k, PerIter: 1, Tol: tol}, true)
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
