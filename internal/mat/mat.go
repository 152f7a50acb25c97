// Package mat provides the dense linear-algebra kernel used by the
// compressive-sensing core: vectors, row-major matrices, QR factorization,
// linear solvers, pseudo-inverse, and ordinary/generalized least squares;
// and the elementwise kernels of the fast transforms (kernels.go), which
// run AVX2 bodies on amd64 CPUs that have them, bit-identical to their Go
// loops.
//
// The package is deliberately small and allocation-conscious rather than
// fully general: everything SenseDroid needs reduces to dense operations on
// matrices whose larger dimension is a few thousand at most (field grids and
// measurement bases), so a straightforward O(n^3) dense implementation with
// partial pivoting and Householder QR is both adequate and easy to audit.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape reports operand dimensions that do not conform.
var ErrShape = errors.New("mat: dimension mismatch")

// ErrSingular reports a numerically singular system.
var ErrSingular = errors.New("mat: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// New returns a zero r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewFromRows builds a matrix from row slices. All rows must have equal
// length. The data is copied.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Mul returns a*b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: (%dx%d)*(%dx%d)", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns a*x for a column vector x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	out := make([]float64, a.Rows)
	if err := MulVecInto(out, a, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulTVec returns aᵀ*x, computed without materializing the transpose.
func MulTVec(a *Matrix, x []float64) ([]float64, error) {
	out := make([]float64, a.Cols)
	if err := MulTVecInto(out, a, x); err != nil {
		return nil, err
	}
	return out, nil
}

// SelectCols returns the submatrix of a formed from the given column
// indices, in order.
func SelectCols(a *Matrix, idx []int) (*Matrix, error) {
	out := New(a.Rows, len(idx))
	if err := SelectColsInto(out, a, idx); err != nil {
		return nil, err
	}
	return out, nil
}

// LeastSquares solves min_x ||a*x - b||₂ via QR (requires a.Rows >= a.Cols
// and full column rank). This implements the paper's ordinary least squares
// (OLS) estimate, Eq. (11). The factorization is IncrementalQR's thin
// column-by-column blocked Gram–Schmidt — O(m·n²) and O(m·n) memory, versus
// the O(m²·n) Householder path with its m×m accumulated Q — and reports
// ErrSingular as soon as a dependent column is met.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), a.Rows)
	}
	if a.Cols == 0 {
		return []float64{}, nil
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("%w: LeastSquares needs rows >= cols, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	f, err := factorCols(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// factorCols factors a's columns, in order, into an IncrementalQR. It
// fails with ErrSingular at the first column dependent on those before.
func factorCols(a *Matrix) (*IncrementalQR, error) {
	f, err := NewIncrementalQR(a.Rows, a.Cols)
	if err != nil {
		return nil, err
	}
	col := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			col[i] = a.Data[i*a.Cols+j]
		}
		if err := f.Append(col); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// WeightedLeastSquares solves min_x Σᵢ ((a*x − b)ᵢ / σᵢ)², the paper's GLS
// estimate, Eq. (12), under the diagonal noise covariance V = diag(σᵢ²):
// row i of a and b is divided by √(σᵢ²), the Cholesky factor of V, and
// the whitened system is solved with ordinary QR.
func WeightedLeastSquares(a *Matrix, b, sigma []float64) ([]float64, error) {
	if len(sigma) != a.Rows || len(b) != a.Rows {
		return nil, fmt.Errorf("%w: %d sigmas and %d rhs for %d rows", ErrShape, len(sigma), len(b), a.Rows)
	}
	wa, wb := New(a.Rows, a.Cols), make([]float64, a.Rows)
	for i, s := range sigma {
		v := s * s
		if v <= 0 {
			return nil, fmt.Errorf("mat: row %d has sigma %v: %w", i, s, ErrSingular)
		}
		d := math.Sqrt(v)
		wb[i] = b[i] / d
		for j := i * a.Cols; j < (i+1)*a.Cols; j++ {
			wa.Data[j] = a.Data[j] / d
		}
	}
	return LeastSquares(wa, wb)
}

// ConditionEstimate estimates the 2-norm condition number of a from the
// extreme diagonal magnitudes of its QR factor R (a wide matrix is
// transposed first). This is a cheap lower bound adequate for the ε_c
// diagnostics in the CS error decomposition; it is exact for diagonal
// matrices and within a small factor for the well-scaled basis
// submatrices used here. A column dependent on the ones before it gives
// +Inf.
func ConditionEstimate(a *Matrix) (float64, error) {
	work := a
	if a.Rows < a.Cols {
		work = a.T()
	}
	f, err := factorCols(work)
	if errors.Is(err, ErrSingular) {
		return math.Inf(1), nil
	}
	if err != nil {
		return 0, err
	}
	mx, mn := 0.0, math.Inf(1)
	for j := 0; j < f.k; j++ {
		d := f.r[j*f.maxCols+j] // Append leaves R's diagonal positive
		mx, mn = math.Max(mx, d), math.Min(mn, d)
	}
	return mx / mn, nil
}
