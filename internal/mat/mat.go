// Package mat provides the dense linear algebra of the compressive-sensing
// core: vectors, row-major matrix storage with its matrix–vector products,
// and the incremental QR factorization every least-squares step of a
// decode runs on; and the elementwise kernels of the fast transforms
// (kernels.go), which run AVX2 bodies on amd64 CPUs that have them,
// bit-identical to their Go loops.
//
// The package is deliberately small and allocation-conscious rather than
// fully general: a decode's least-squares systems are the few dozen
// sampled basis columns of its support, so a thin Gram–Schmidt QR grown a
// column at a time is both adequate and easy to audit.
package mat

import (
	"errors"
	"fmt"
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
