package cs

import (
	"repro/internal/mat"
)

// Warm-start plumbing shared by the OMP and CHS cores. A seed is a support
// recovered by an earlier decode of the same dictionary (Result.Support,
// in admission order). Seeding replays exactly the Append/DeflateLatest
// sequence the greedy loop would have performed for those columns — the
// correlation scans it skips never touch the QR factors or the residual —
// so a seed that matches what the cold decode would have admitted leaves
// the decoder in a bit-identical state.

// validSeed reports whether a seed can be folded into the factors at all:
// non-empty, within the support cap, all indices in range and distinct.
// Invalid seeds are silently discarded (the caller decodes cold): a stale
// support from a differently-sized window is an expected input, not an
// error. The duplicate check borrows the decoder's inSupport marks (length
// n, all false) and leaves them all false again.
func validSeed(seed []int, n, maxSupport int, mark []bool) bool {
	if len(seed) == 0 || len(seed) > maxSupport {
		return false
	}
	for _, j := range seed {
		if j < 0 || j >= n {
			return false
		}
	}
	return !hasDuplicates(seed, mark)
}

// seedFactors folds the seed columns into the incremental-QR factors and
// deflates the residual, in seed order. It returns the grown support and
// ok=false when a seed column is linearly dependent on its predecessors
// (the caller restarts cold). Hard errors (dictionary access on a
// validated index) propagate.
func seedFactors(d dict, qr *mat.IncrementalQR, resid, col []float64, support []int, inSupport []bool, seed []int) ([]int, bool, error) {
	for _, j := range seed {
		if err := d.col(col, j); err != nil {
			return support, false, err
		}
		if err := qr.Append(col); err != nil {
			return support, false, nil // rank-deficient seed: decode cold
		}
		support = append(support, j)
		inSupport[j] = true
		if _, err := qr.DeflateLatest(resid); err != nil {
			return support, false, err
		}
	}
	return support, true, nil
}

// coldRestart discards a failed seed: fresh factors with room for cols
// columns, full residual, empty support. The inSupport marks set during
// seeding are cleared in place.
func coldRestart(d dict, y []float64, cols int, support []int, inSupport []bool) (*mat.IncrementalQR, []float64, []int, error) {
	for _, j := range support {
		inSupport[j] = false
	}
	qr, err := mat.NewIncrementalQR(d.rows(), cols)
	if err != nil {
		return nil, nil, nil, err
	}
	return qr, mat.CloneVec(y), support[:0], nil
}
