package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrAlias reports an in-place kernel whose output buffer aliases an input.
var ErrAlias = errors.New("mat: output aliases input")

// IncrementalQR maintains a thin QR factorization A = Q·R of a tall matrix
// whose columns arrive one at a time — the factorization greedy decoders
// (OMP, CHS) grow per iteration. Appending a column costs O(m·k) via
// modified Gram–Schmidt with one re-orthogonalization pass, instead of the
// O(m·k²) full Householder refactorization per iteration.
//
// Q's columns are stored contiguously (column j at q[j*m:(j+1)*m]) so the
// append-time projections are sequential scans.
type IncrementalQR struct {
	m, maxCols int
	k          int
	q          []float64 // m×maxCols, column-contiguous
	r          []float64 // upper triangular, column-contiguous: R[i][j] at r[j*maxCols+i], i <= j
}

// NewIncrementalQR returns an empty factorization for m-row columns with
// capacity maxCols (requires 0 < maxCols <= m for full column rank).
func NewIncrementalQR(m, maxCols int) (*IncrementalQR, error) {
	if m <= 0 || maxCols <= 0 {
		return nil, fmt.Errorf("%w: IncrementalQR needs positive dims, got m=%d maxCols=%d", ErrShape, m, maxCols)
	}
	if maxCols > m {
		return nil, fmt.Errorf("%w: IncrementalQR capacity %d exceeds row count %d", ErrShape, maxCols, m)
	}
	return &IncrementalQR{
		m: m, maxCols: maxCols,
		q: make([]float64, m*maxCols),
		r: make([]float64, maxCols*maxCols),
	}, nil
}

// Len returns the number of columns currently factored.
func (f *IncrementalQR) Len() int { return f.k }

// Append factors one more column into Q·R. It returns ErrSingular without
// modifying the factorization when the new column is (numerically) linearly
// dependent on the current ones, and ErrShape when the column length or the
// capacity doesn't fit.
func (f *IncrementalQR) Append(col []float64) error {
	if len(col) != f.m {
		return fmt.Errorf("%w: column length %d, want %d", ErrShape, len(col), f.m)
	}
	if f.k >= f.maxCols {
		return fmt.Errorf("%w: IncrementalQR at capacity %d", ErrShape, f.maxCols)
	}
	v := f.q[f.k*f.m : (f.k+1)*f.m]
	copy(v, col)
	norm0 := Norm2(col)
	rk := f.r[f.k*f.maxCols:]
	for j := 0; j < f.k; j++ {
		rk[j] = 0
	}
	// Modified Gram–Schmidt with a second pass: the re-orthogonalization
	// ("twice is enough") keeps Q orthonormal to machine precision even for
	// the coherent point-sampled basis columns OMP selects near convergence.
	// The 2k projection steps form one sweep: the loop that subtracts step
	// t's projection also accumulates step t+1's dot product — or, after
	// the last step, ‖v‖² — from each just-updated v[i], so v is walked
	// once per step instead of twice. Every product and sum happens in the
	// same order as a Dot-then-subtract loop, so Q and R are bit-identical
	// to it.
	var nv float64
	if f.k == 0 {
		nv = Norm2(v)
	} else {
		steps := 2 * f.k
		d := Dot(f.q[:f.m], v)
		for t := 0; t < steps; t++ {
			j := t % f.k
			qj := f.q[j*f.m : (j+1)*f.m]
			rk[j] += d
			s := 0.0
			if t+1 < steps {
				jn := (t + 1) % f.k
				qn := f.q[jn*f.m : (jn+1)*f.m]
				qn, v := qn[:len(qj)], v[:len(qj)]
				for i, qv := range qj {
					x := v[i] - d*qv
					v[i] = x
					s += qn[i] * x
				}
				d = s
			} else {
				v := v[:len(qj)]
				for i, qv := range qj {
					x := v[i] - d*qv
					v[i] = x
					s += x * x
				}
				nv = math.Sqrt(s)
			}
		}
	}
	// Relative rank test: a residual this far below the column's own norm
	// means the column lies in span(Q) to working precision.
	if nv <= 1e-12*math.Max(norm0, 1) {
		return ErrSingular
	}
	rk[f.k] = nv
	inv := 1 / nv
	for i := range v {
		v[i] *= inv
	}
	f.k++
	return nil
}

// DeflateLatest subtracts from v its projection onto the newest Q column:
// v ← v − (q_k·v)·q_k. For a residual r = y − QQᵀy maintained across
// appends this is the O(m) residual update of orthogonal matching pursuit
// (the new column is orthogonal to all previous ones, so one deflation
// keeps r exact). Returns the removed coefficient q_k·v.
func (f *IncrementalQR) DeflateLatest(v []float64) (float64, error) {
	if f.k == 0 {
		return 0, errors.New("mat: DeflateLatest on empty factorization")
	}
	if len(v) != f.m {
		return 0, fmt.Errorf("%w: vector length %d, want %d", ErrShape, len(v), f.m)
	}
	qk := f.q[(f.k-1)*f.m : f.k*f.m]
	d := Dot(qk, v)
	for i, qv := range qk {
		v[i] -= d * qv
	}
	return d, nil
}

// Solve returns the least-squares coefficients x minimizing ‖A·x − y‖₂ for
// the factored A: x = R⁻¹Qᵀy.
func (f *IncrementalQR) Solve(y []float64) ([]float64, error) {
	x := make([]float64, f.k)
	if err := f.SolveInto(x, y); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto writes the least-squares coefficients into x (length Len()).
func (f *IncrementalQR) SolveInto(x, y []float64) error {
	if len(y) != f.m {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(y), f.m)
	}
	if len(x) != f.k {
		return fmt.Errorf("%w: solution length %d, want %d", ErrShape, len(x), f.k)
	}
	// x ← Qᵀy.
	for j := 0; j < f.k; j++ {
		x[j] = Dot(f.q[j*f.m:(j+1)*f.m], y)
	}
	// Back-substitute R·x = Qᵀy (R stored column-contiguous: R[i][j] at
	// r[j*maxCols+i]).
	for i := f.k - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < f.k; j++ {
			s -= f.r[j*f.maxCols+i] * x[j]
		}
		d := f.r[i*f.maxCols+i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}
