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
// blocked classical Gram–Schmidt with Kahan–Parlett selective
// re-orthogonalization, instead of the O(m·k²) full Householder
// refactorization per iteration.
//
// Q's columns are stored contiguously (column j at q[j*m:(j+1)*m]) so the
// append-time projections are sequential scans.
type IncrementalQR struct {
	m, maxCols int
	k          int
	q          []float64 // m×maxCols, column-contiguous
	r          []float64 // upper triangular, column-contiguous: R[i][j] at r[j*maxCols+i], i <= j
}

// gsBlock is how many Q columns one sweep over v covers. Each sweep of
// Qᵀv carries that many independent dot-product chains, so the adds
// overlap instead of each waiting on the previous one.
const gsBlock = 4

// NewIncrementalQR returns an empty factorization for m-row columns with
// capacity maxCols (requires 0 < maxCols <= m for full column rank).
func NewIncrementalQR(m, maxCols int) (*IncrementalQR, error) {
	f := new(IncrementalQR)
	if err := f.Reset(m, maxCols); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset empties the factorization and reshapes it for m-row columns with
// capacity maxCols, under the same constraints as NewIncrementalQR. Q and
// R keep their storage when its capacity suffices: every entry a later
// Append, DeflateLatest or Solve reads is written first by an Append, so
// what the storage held before cannot reach a result. On error f is
// unchanged.
func (f *IncrementalQR) Reset(m, maxCols int) error {
	if m <= 0 || maxCols <= 0 {
		return fmt.Errorf("%w: IncrementalQR needs positive dims, got m=%d maxCols=%d", ErrShape, m, maxCols)
	}
	if maxCols > m {
		return fmt.Errorf("%w: IncrementalQR capacity %d exceeds row count %d", ErrShape, maxCols, m)
	}
	f.m, f.maxCols, f.k = m, maxCols, 0
	f.q = resize(f.q, m*maxCols)
	f.r = resize(f.r, maxCols*maxCols)
	return nil
}

// resize returns s with length n, reallocating only when its capacity is
// short. Reused elements keep whatever they held.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Len returns the number of columns currently factored.
func (f *IncrementalQR) Len() int { return f.k }

// Append factors one more column into Q·R. It returns ErrSingular without
// modifying the factorization when the new column is (numerically) linearly
// dependent on the current ones, and ErrShape when the column length or the
// capacity doesn't fit.
//
// The column is projected off Q by classical Gram–Schmidt: h = Qᵀv, then
// v ← v − Q·h. A second pass runs only when the first cancelled most of
// the column (‖v′‖ < ‖v‖/√2, Kahan–Parlett "twice is enough"): only then
// can the rounding error of the first pass, relative to what is left, be
// large enough to leave v′ measurably non-orthogonal to Q. After at most
// two passes the relative rank test decides.
func (f *IncrementalQR) Append(col []float64) error {
	if len(col) != f.m {
		return fmt.Errorf("%w: column length %d, want %d", ErrShape, len(col), f.m)
	}
	if f.k >= f.maxCols {
		return fmt.Errorf("%w: IncrementalQR at capacity %d", ErrShape, f.maxCols)
	}
	// v and R's column k lie past the factored columns, so a rejected
	// column leaves Q, R and k as they were.
	v := f.q[f.k*f.m : (f.k+1)*f.m]
	copy(v, col)
	norm0 := Norm2(col)
	rk := f.r[f.k*f.maxCols : f.k*f.maxCols+f.k+1]
	nv := f.project(rk[:f.k], v)
	if nv < norm0/math.Sqrt2 {
		// R's strictly lower triangle is never read: column 0's part of
		// it (maxCols−1 ≥ k slots) holds the second pass's coefficients.
		h := f.r[1 : 1+f.k]
		nv = f.project(h, v)
		for j, d := range h {
			rk[j] += d
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

// project runs one classical Gram–Schmidt pass of v against the first
// len(h) columns of Q — h = Qᵀv, then v ← v − Q·h — and returns ‖v‖
// after it.
func (f *IncrementalQR) project(h, v []float64) float64 {
	f.mulQT(h, v)
	m := f.m
	j := 0
	for ; j+gsBlock <= len(h); j += gsBlock {
		q := f.q[j*m : (j+4)*m]
		SubMul4(v, q[:m], q[m:2*m], q[2*m:3*m], q[3*m:], h[j], h[j+1], h[j+2], h[j+3])
	}
	for ; j < len(h); j++ {
		SubMul(v, f.q[j*m:(j+1)*m], h[j])
	}
	return Norm2(v)
}

// mulQT writes h = Qᵀv for the first len(h) columns of Q, gsBlock
// independent dot products per sweep over v.
func (f *IncrementalQR) mulQT(h, v []float64) {
	m := f.m
	j := 0
	for ; j+gsBlock <= len(h); j += gsBlock {
		q0 := f.q[j*m : (j+1)*m]
		q1, q2, q3 := f.q[(j+1)*m:(j+2)*m], f.q[(j+2)*m:(j+3)*m], f.q[(j+3)*m:(j+4)*m]
		q1, q2, q3, v := q1[:len(q0)], q2[:len(q0)], q3[:len(q0)], v[:len(q0)]
		var s0, s1, s2, s3 float64
		for i, x := range v {
			s0 += q0[i] * x
			s1 += q1[i] * x
			s2 += q2[i] * x
			s3 += q3[i] * x
		}
		h[j], h[j+1], h[j+2], h[j+3] = s0, s1, s2, s3
	}
	for ; j < len(h); j++ {
		h[j] = Dot(f.q[j*m:(j+1)*m], v)
	}
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
	SubMul(v, qk, d)
	return d, nil
}

// ConditionEstimate estimates the 2-norm condition number of the factored
// columns from the extreme magnitudes of R's diagonal. It is a cheap lower
// bound, exact for orthogonal columns and within a small factor for the
// well-scaled basis columns of a decode: the ε_c indicator of the paper's
// error decomposition.
func (f *IncrementalQR) ConditionEstimate() float64 {
	mx, mn := 0.0, math.Inf(1)
	for j := 0; j < f.k; j++ {
		d := f.r[j*f.maxCols+j] // Append leaves R's diagonal positive
		mx, mn = math.Max(mx, d), math.Min(mn, d)
	}
	return mx / mn
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
	f.mulQT(x, y) // x ← Qᵀy
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
