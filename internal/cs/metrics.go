package cs

import (
	"errors"
	"math"

	"repro/internal/basis"
	"repro/internal/field"
	"repro/internal/mat"
)

// NMSE returns ‖x − x̂‖² / ‖x‖², the normalized mean-square error used for
// the Fig. 4 reconstruction-error curve. Returns +Inf for a zero truth
// signal with nonzero estimate.
func NMSE(x, xhat []float64) float64 {
	if len(x) != len(xhat) || len(x) == 0 {
		return math.NaN()
	}
	num, den := 0.0, 0.0
	for i := range x {
		d := x[i] - xhat[i]
		num += d * d
		den += x[i] * x[i]
	}
	return nmseRatio(num, den)
}

// ZoneNMSE is NMSE(field.Extract(truth, z).Data, xhat) without the copy:
// it reads the zone in place, in the column-stacked order Extract lays it
// out, so the sums — and the result — are bit-identical.
func ZoneNMSE(truth *field.Field, z field.Zone, xhat []float64) float64 {
	if len(xhat) != z.W*z.H || len(xhat) == 0 {
		return math.NaN()
	}
	num, den := 0.0, 0.0
	for c := 0; c < z.W; c++ {
		x := truth.Data[(z.Col0+c)*truth.H+z.Row0:][:z.H]
		est := xhat[c*z.H:][:z.H]
		for r, v := range x {
			d := v - est[r]
			num += d * d
			den += v * v
		}
	}
	return nmseRatio(num, den)
}

// nmseRatio is num/den with NMSE's zero-truth convention.
func nmseRatio(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// Accuracy returns the reconstruction accuracy 1 − ‖x−x̂‖/‖x‖ (clamped to
// [0,1]), the "accuracy of reconstruction" axis of the paper's Fig. 4.
func Accuracy(x, xhat []float64) float64 {
	n := NMSE(x, xhat)
	if math.IsNaN(n) {
		return math.NaN()
	}
	a := 1 - math.Sqrt(n)
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// SNRdB returns the reconstruction signal-to-noise ratio in decibels.
func SNRdB(x, xhat []float64) float64 {
	n := NMSE(x, xhat)
	if n == 0 {
		return math.Inf(1)
	}
	return -10 * math.Log10(n)
}

// ErrorBreakdown decomposes the total reconstruction error into the
// paper's three components (§4): the K-term approximation error ε_a, a
// conditioning indicator ε_c (the condition number of the sensing
// submatrix Φ̃_K — large values amplify noise), and the measurement noise
// floor ε_m. Total is the realized reconstruction NMSE.
type ErrorBreakdown struct {
	ApproxNMSE float64 // ε_a: NMSE of the best K-term approximation of x
	Condition  float64 // ε_c indicator: cond(Φ̃_K) on the recovered support
	NoiseNMSE  float64 // ε_m: measurement-noise energy relative to signal
	TotalNMSE  float64 // realized NMSE of the reconstruction
}

// Diagnose computes the error breakdown for a completed recovery against
// ground truth x in the basis op. noiseSigmas are the per-measurement
// noise standard deviations used (nil → 0).
func Diagnose(op basis.Operator, x []float64, locs []int, res *Result, noiseSigmas []float64) (*ErrorBreakdown, error) {
	if res == nil {
		return nil, errors.New("cs: nil result")
	}
	d, err := newOpDict(op, locs)
	if err != nil {
		return nil, err
	}
	k := len(res.Support)
	bd := &ErrorBreakdown{TotalNMSE: NMSE(x, res.Xhat)}
	// ε_a: best K-term approximation in the basis — analysis, top K,
	// synthesis.
	alpha, err := basis.OpAnalyze(op, x)
	if err != nil {
		return nil, err
	}
	sparse, _ := basis.SparsifyTopK(alpha, k)
	xk := make([]float64, d.n)
	op.Apply(xk, sparse)
	bd.ApproxNMSE = NMSE(x, xk)
	// ε_c: conditioning of the sensing submatrix on the recovered support,
	// +Inf if its columns are dependent, as more columns than readings are.
	if k > 0 {
		var qr mat.IncrementalQR
		switch err := d.factorInto(&qr, res.Support, nil, make([]float64, d.rows())); {
		case err == nil:
			bd.Condition = qr.ConditionEstimate()
		case errors.Is(err, mat.ErrSingular) || k > d.rows():
			bd.Condition = math.Inf(1)
		default:
			return nil, err
		}
	}
	// ε_m: noise energy relative to signal energy at the sensors.
	sigE := 0.0
	for _, l := range locs {
		sigE += x[l] * x[l]
	}
	noiseE := 0.0
	for i := range locs {
		s := 0.0
		if len(noiseSigmas) == 1 {
			s = noiseSigmas[0]
		} else if len(noiseSigmas) > i {
			s = noiseSigmas[i]
		}
		noiseE += s * s
	}
	if sigE > 0 {
		bd.NoiseNMSE = noiseE / sigE
	}
	return bd, nil
}

// CompressionRatio returns N/M, the paper's compression ratio for M
// measurements of an N-point field.
func CompressionRatio(n, m int) float64 {
	if m == 0 {
		return math.Inf(1)
	}
	return float64(n) / float64(m)
}

// TheoreticalM returns the O(K·log N) measurement count the paper cites as
// sufficient for recovery (with the customary constant c).
func TheoreticalM(k, n int, c float64) int {
	if k <= 0 || n <= 1 {
		return 0
	}
	m := int(math.Ceil(c * float64(k) * math.Log(float64(n))))
	if m > n {
		m = n
	}
	return m
}
