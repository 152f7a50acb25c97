package cs

// Spatio-temporal recovery: the paper's framework performs "multi-tiered
// data aggregation of spatio-temporal sparse fields" and "jointly
// perform[s] spatio-temporal compressive sensing". Two decoders:
//
//   - RecoverSequence: the per-snapshot baseline — each time step decoded
//     independently in the spatial basis.
//   - RecoverSpatioTemporal: joint decoding — the whole T-step sequence is
//     one signal, sparse in the (temporal DCT ⊗ spatial basis) product,
//     so temporal correlation buys accuracy at the same total budget
//     (ablation A5 quantifies the win).
//
// A note for maintainers: an innovation-tracking decoder (decode
// x_t − x̂_{t−1} per step) was tried first and diverges — greedy fits to
// the innovation extrapolate wildly off-sample and the errors compound
// step over step. Joint decoding has no feedback loop and is stable.

import (
	"errors"
	"math/rand"

	"repro/internal/basis"
)

// SequenceOptions tunes the per-step baseline decoder, which samples
// without noise and decodes each step with a sparsity budget of M/3.
type SequenceOptions struct {
	M    int // measurements per time step (required)
	Seed int64
}

// StepReport records one recovered time step.
type StepReport struct {
	T       int
	NMSE    float64
	Support int
}

// RecoverSequence samples and recovers each field in the sequence
// independently (each a column-stacked vector of length phi.Dim()). The
// spatial basis is a matrix-free operator; wrap a dense matrix with
// basis.FromMatrix.
func RecoverSequence(phi basis.Operator, seq [][]float64, opts SequenceOptions) ([]StepReport, [][]float64, error) {
	n, err := checkSequence(phi, seq)
	if err != nil {
		return nil, nil, err
	}
	if opts.M <= 0 {
		return nil, nil, errors.New("cs: sequence recovery needs positive M")
	}
	k := opts.M / 3
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	reports := make([]StepReport, 0, len(seq))
	recovered := make([][]float64, 0, len(seq))
	for t, x := range seq {
		locs, err := RandomLocations(rng, n, opts.M)
		if err != nil {
			return nil, nil, err
		}
		y, err := Measure(x, locs, rng, nil)
		if err != nil {
			return nil, nil, err
		}
		res, err := OMPOp(phi, locs, y, k, 1e-9)
		if err != nil {
			return nil, nil, err
		}
		reports = append(reports, StepReport{T: t, NMSE: NMSE(x, res.Xhat), Support: len(res.Support)})
		recovered = append(recovered, res.Xhat)
	}
	return reports, recovered, nil
}

// SpatioTemporalOptions tunes the joint decoder, whose sparsity budget
// is T·M/3.
type SpatioTemporalOptions struct {
	M          int // measurements per time step (same sampler as the baseline)
	NoiseSigma float64
	Seed       int64
}

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

// RecoverSpatioTemporal samples each step of the sequence and decodes the
// whole thing jointly: the T×M measurements index into the length T·N
// joint signal — few temporal modes represent a slowly evolving field, so
// the joint problem is much sparser relative to its size than any single
// snapshot.
func RecoverSpatioTemporal(phi basis.Operator, seq [][]float64, opts SpatioTemporalOptions) ([]StepReport, [][]float64, error) {
	n, err := checkSequence(phi, seq)
	if err != nil {
		return nil, nil, err
	}
	if opts.M <= 0 {
		return nil, nil, errors.New("cs: sequence recovery needs positive M")
	}
	t := len(seq)
	rng := rand.New(rand.NewSource(opts.Seed))
	jm := JointMeasurements{T: t, N: n}
	for step, x := range seq {
		locs, err := RandomLocations(rng, n, opts.M)
		if err != nil {
			return nil, nil, err
		}
		ys, err := Measure(x, locs, rng, sigmaSlice(opts.NoiseSigma))
		if err != nil {
			return nil, nil, err
		}
		for i, l := range locs {
			jm.Locs = append(jm.Locs, step*n+l)
			jm.Y = append(jm.Y, ys[i])
		}
	}
	recovered, res, err := DecodeSpatioTemporal(phi, jm, t*opts.M/3)
	if err != nil {
		return nil, nil, err
	}
	reports := make([]StepReport, 0, t)
	for step, x := range seq {
		reports = append(reports, StepReport{
			T: step, NMSE: NMSE(x, recovered[step]), Support: len(res.Support),
		})
	}
	return reports, recovered, nil
}

func checkSequence(phi basis.Operator, seq [][]float64) (int, error) {
	if len(seq) == 0 {
		return 0, errors.New("cs: empty sequence")
	}
	n := phi.Dim()
	for _, x := range seq {
		if len(x) != n {
			return 0, errors.New("cs: sequence step length mismatch")
		}
	}
	return n, nil
}

func sigmaSlice(sigma float64) []float64 {
	if sigma > 0 {
		return []float64{sigma}
	}
	return nil
}

// MeanNMSE averages the per-step NMSE of a recovered sequence.
func MeanNMSE(reports []StepReport) float64 {
	if len(reports) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range reports {
		s += r.NMSE
	}
	return s / float64(len(reports))
}
