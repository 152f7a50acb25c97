package cs

// Spatio-temporal recovery: the paper's framework performs "multi-tiered
// data aggregation of spatio-temporal sparse fields" and "jointly
// perform[s] spatio-temporal compressive sensing". DecodeSpatioTemporal
// decodes a whole T-step sequence as one signal, sparse in the (temporal
// DCT ⊗ spatial basis) product, so temporal correlation buys accuracy at
// the same total budget; ablation A5 compares it with decoding each step
// alone.
//
// A note for maintainers: an innovation-tracking decoder (decode
// x_t − x̂_{t−1} per step) was tried first and diverges — greedy fits to
// the innovation extrapolate wildly off-sample and the errors compound
// step over step. Joint decoding has no feedback loop and is stable.

import (
	"errors"

	"repro/internal/basis"
)

// JointMeasurements holds measurements of a T-step, N-cell sequence in
// joint-index form: Locs[i] = step·N + spatialIndex.
type JointMeasurements struct {
	T, N int
	Locs []int
	Y    []float64
}

// DecodeSpatioTemporal decodes joint measurements in Ψ = Φ_space ⊗ DCT_T
// and returns the per-step recovered fields plus the raw result. k ≤ 0
// applies the |measurements|/3 heuristic. The joint basis is applied
// separably — the T·N × T·N Kronecker product is never materialized, which
// is what keeps long sequences over large grids affordable.
func DecodeSpatioTemporal(phi basis.Operator, jm JointMeasurements, k int) ([][]float64, *Result, error) {
	if jm.T <= 0 || jm.N != phi.Dim() {
		return nil, nil, errors.New("cs: joint measurements shape mismatch")
	}
	if len(jm.Locs) == 0 || len(jm.Locs) != len(jm.Y) {
		return nil, nil, errors.New("cs: joint measurements empty or inconsistent")
	}
	tempo, err := basis.CachedOperator(basis.KindDCT, jm.T)
	if err != nil {
		return nil, nil, err
	}
	// Joint index step·N + loc matches Separable2D's column-stacked layout
	// with the spatial factor on rows and the temporal factor on columns.
	joint := basis.NewSeparable2D(phi, tempo)
	if k <= 0 {
		k = len(jm.Locs) / 3
	}
	if k >= len(jm.Locs) {
		k = len(jm.Locs) - 1
	}
	if k < 1 {
		k = 1
	}
	res, err := OMPOp(joint, jm.Locs, jm.Y, k, 1e-9)
	if err != nil {
		return nil, nil, err
	}
	recovered := make([][]float64, jm.T)
	for step := 0; step < jm.T; step++ {
		out := make([]float64, jm.N)
		copy(out, res.Xhat[step*jm.N:(step+1)*jm.N])
		recovered[step] = out
	}
	return recovered, res, nil
}
