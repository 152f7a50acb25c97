// Package mat provides the dense linear-algebra kernel used by the
// compressive-sensing core: vectors, row-major matrices, QR factorization,
// linear solvers, pseudo-inverse, and ordinary/generalized least squares.
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

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Data[i*len(d)+i] = v
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

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
	if a.Cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)*vec(%d)", ErrShape, a.Rows, a.Cols, len(x))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// MulTVec returns aᵀ*x, computed without materializing the transpose.
func MulTVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Rows != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)ᵀ*vec(%d)", ErrShape, a.Rows, a.Cols, len(x))
	}
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			out[j] += v * xi
		}
	}
	return out, nil
}

// Add returns a+b.
func Add(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, ErrShape
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out, nil
}

// Sub returns a-b.
func Sub(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, ErrShape
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out, nil
}

// SelectRows returns the submatrix of a formed from the given row indices,
// in order. Indices may repeat.
func SelectRows(a *Matrix, idx []int) (*Matrix, error) {
	out := New(len(idx), a.Cols)
	for k, i := range idx {
		if i < 0 || i >= a.Rows {
			return nil, fmt.Errorf("mat: row index %d out of range [0,%d)", i, a.Rows)
		}
		copy(out.Data[k*a.Cols:(k+1)*a.Cols], a.Data[i*a.Cols:(i+1)*a.Cols])
	}
	return out, nil
}

// SelectCols returns the submatrix of a formed from the given column
// indices, in order.
func SelectCols(a *Matrix, idx []int) (*Matrix, error) {
	out := New(a.Rows, len(idx))
	for k, j := range idx {
		if j < 0 || j >= a.Cols {
			return nil, fmt.Errorf("mat: col index %d out of range [0,%d)", j, a.Cols)
		}
		for i := 0; i < a.Rows; i++ {
			out.Data[i*len(idx)+k] = a.Data[i*a.Cols+j]
		}
	}
	return out, nil
}

// MaxAbs returns the largest |element| of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Solve solves the square system a*x = b by Gaussian elimination with
// partial pivoting. a and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: Solve needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	// Augmented working copy.
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(w.Data[col*n+col])
		for i := col + 1; i < n; i++ {
			if v := math.Abs(w.Data[i*n+col]); v > best {
				best, p = v, i
			}
		}
		if best == 0 {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				w.Data[col*n+j], w.Data[p*n+j] = w.Data[p*n+j], w.Data[col*n+j]
			}
			x[col], x[p] = x[p], x[col]
		}
		piv := w.Data[col*n+col]
		for i := col + 1; i < n; i++ {
			f := w.Data[i*n+col] / piv
			if f == 0 {
				continue
			}
			w.Data[i*n+col] = 0
			for j := col + 1; j < n; j++ {
				w.Data[i*n+j] -= f * w.Data[col*n+j]
			}
			x[i] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= w.Data[i*n+j] * x[j]
		}
		x[i] = s / w.Data[i*n+i]
	}
	return x, nil
}

// Inverse returns a⁻¹ for square a.
func Inverse(a *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: Inverse needs square matrix", ErrShape)
	}
	out := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := Solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out.Data[i*n+j] = col[i]
		}
	}
	return out, nil
}

// QR holds a thin Householder QR factorization a = Q*R with Q m×n
// orthonormal columns and R n×n upper triangular (requires m >= n).
type QR struct {
	Q *Matrix
	R *Matrix
}

// QRDecompose computes the thin QR factorization of a (Rows >= Cols).
func QRDecompose(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("%w: QR needs rows >= cols, got %dx%d", ErrShape, m, n)
	}
	r := a.Clone()
	// Accumulate Q explicitly by applying the Householder reflectors to I.
	q := Identity(m)
	v := make([]float64, m)
	for k := 0; k < n; k++ {
		// Build Householder vector for column k of r below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm += r.Data[i*n+k] * r.Data[i*n+k]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		alpha := -norm
		if r.Data[k*n+k] < 0 {
			alpha = norm
		}
		vnorm2 := 0.0
		for i := k; i < m; i++ {
			v[i] = r.Data[i*n+k]
			if i == k {
				v[i] -= alpha
			}
			vnorm2 += v[i] * v[i]
		}
		if vnorm2 == 0 {
			continue
		}
		// Apply H = I - 2 v vᵀ / (vᵀv) to r (columns k..n-1).
		for j := k; j < n; j++ {
			dot := 0.0
			for i := k; i < m; i++ {
				dot += v[i] * r.Data[i*n+j]
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				r.Data[i*n+j] -= f * v[i]
			}
		}
		// Apply H to q from the right: q = q * H.
		for i := 0; i < m; i++ {
			dot := 0.0
			for j := k; j < m; j++ {
				dot += q.Data[i*m+j] * v[j]
			}
			f := 2 * dot / vnorm2
			for j := k; j < m; j++ {
				q.Data[i*m+j] -= f * v[j]
			}
		}
	}
	// Thin factors.
	qt := New(m, n)
	for i := 0; i < m; i++ {
		copy(qt.Data[i*n:(i+1)*n], q.Data[i*m:i*m+n])
	}
	rt := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rt.Data[i*n+j] = r.Data[i*n+j]
		}
	}
	return &QR{Q: qt, R: rt}, nil
}

// LeastSquares solves min_x ||a*x - b||₂ via QR (requires a.Rows >= a.Cols
// and full column rank). This implements the paper's ordinary least squares
// (OLS) estimate, Eq. (11). The factorization is the thin column-by-column
// MGS of IncrementalQR — O(m·n²) and O(m·n) memory, versus the O(m²·n)
// Householder path with its m×m accumulated Q — and reports ErrSingular as
// soon as a dependent column is met.
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
	return f.Solve(b)
}

// WeightedLeastSquares solves the generalized least squares problem
// min_x (a*x-b)ᵀ V⁻¹ (a*x-b) for a noise covariance V, the paper's GLS
// estimate, Eq. (12). V must be symmetric positive definite. The system is
// whitened with the Cholesky factor of V and solved with ordinary QR.
func WeightedLeastSquares(a *Matrix, b []float64, v *Matrix) ([]float64, error) {
	if v.Rows != a.Rows || v.Cols != a.Rows {
		return nil, fmt.Errorf("%w: covariance %dx%d, want %dx%d", ErrShape, v.Rows, v.Cols, a.Rows, a.Rows)
	}
	l, err := Cholesky(v)
	if err != nil {
		return nil, fmt.Errorf("mat: covariance not positive definite: %w", err)
	}
	// Whiten: solve L*Ã = A and L*b̃ = b, then OLS on (Ã, b̃).
	wb, err := solveLowerTriangular(l, b)
	if err != nil {
		return nil, err
	}
	wa := New(a.Rows, a.Cols)
	col := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			col[i] = a.Data[i*a.Cols+j]
		}
		wc, err := solveLowerTriangular(l, col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < a.Rows; i++ {
			wa.Data[i*a.Cols+j] = wc[i]
		}
	}
	return LeastSquares(wa, wb)
}

// Cholesky returns the lower-triangular L with a = L*Lᵀ for symmetric
// positive-definite a.
func Cholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, ErrShape
	}
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.Data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.Data[i*n+k] * l.Data[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Data[i*n+i] = math.Sqrt(s)
			} else {
				l.Data[i*n+j] = s / l.Data[j*n+j]
			}
		}
	}
	return l, nil
}

func solveLowerTriangular(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if len(b) != n {
		return nil, ErrShape
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.Data[i*n+j] * x[j]
		}
		d := l.Data[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// PseudoInverse returns the Moore–Penrose pseudo-inverse of a full
// column-rank matrix a (Rows >= Cols): (aᵀa)⁻¹aᵀ, computed via QR as
// R⁻¹Qᵀ for numerical robustness. This is the Φ† operator of the paper.
func PseudoInverse(a *Matrix) (*Matrix, error) {
	if a.Rows < a.Cols {
		// Right pseudo-inverse for full row rank: aᵀ(a aᵀ)⁻¹.
		at := a.T()
		aat, err := Mul(a, at)
		if err != nil {
			return nil, err
		}
		inv, err := Inverse(aat)
		if err != nil {
			return nil, err
		}
		return Mul(at, inv)
	}
	qr, err := QRDecompose(a)
	if err != nil {
		return nil, err
	}
	rinv, err := Inverse(qr.R)
	if err != nil {
		return nil, err
	}
	return Mul(rinv, qr.Q.T())
}

// ConditionEstimate estimates the 2-norm condition number of a from the
// extreme diagonal magnitudes of its QR factor R. This is a cheap lower
// bound adequate for the ε_c diagnostics in the CS error decomposition; it
// is exact for diagonal matrices and within a small factor for the
// well-scaled basis submatrices used here.
func ConditionEstimate(a *Matrix) (float64, error) {
	work := a
	if a.Rows < a.Cols {
		work = a.T()
	}
	qr, err := QRDecompose(work)
	if err != nil {
		return 0, err
	}
	n := qr.R.Rows
	mx, mn := 0.0, math.Inf(1)
	for i := 0; i < n; i++ {
		d := math.Abs(qr.R.Data[i*n+i])
		if d > mx {
			mx = d
		}
		if d < mn {
			mn = d
		}
	}
	if mn == 0 {
		return math.Inf(1), nil
	}
	return mx / mn, nil
}
