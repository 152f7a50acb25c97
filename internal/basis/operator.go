package basis

// Matrix-free basis operators. An explicit n×n matrix costs O(n²) per
// decoder iteration (and a 2-D Kronecker basis squares that). An Operator
// exposes the same linear map through Apply/ApplyTranspose at O(n log n) —
// DCT-II/III and the real-embedded DFT ride a shared radix-2 FFT core
// (internal/fft), Haar runs the O(n) lifting cascade, and Separable2D
// applies a 2-D basis through its row/column factors without ever forming
// the Kronecker product. The OperatorFor factory falls back to a
// matrix-backed operator for sizes the fast paths cannot serve
// (non-power-of-two DCT/DFT), and FromMatrix wraps a learned basis the
// same way; the property tests pin every fast path to a dense oracle
// within 1e-9.
//
// Determinism: operators never spawn goroutines, the FFT butterfly order is
// a fixed function of n, and scratch buffers are fully overwritten before
// use — a given input produces bit-identical output on every call at every
// GOMAXPROCS. Operators are safe for concurrent use; per-call scratch comes
// from an internal sync.Pool, and the only state they change after
// construction is Separable2D's first-use caches (its row table and factor
// columns), each published once and read without a lock.
//
// Rows and entries: the identity, MatrixOp and the DCT and DFT operators
// also read one row Φ[i,·] (RowInto, O(n)) or entry Φ[i,j] (Entry, O(1))
// without a transform, a DCT/DFT one from its twiddle table at every n. A
// table row may differ from the FFT path by a few ulps, inside the 1e-9
// dense-equivalence bound the property tests pin. Haar and Separable2D
// have neither; the decoders read them by transforms and FactorColumns.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/fft"
	"repro/internal/mat"
)

// Operator is a matrix-free orthonormal basis Φ of dimension n×n. Apply is
// synthesis (x = Φα, paper Eq. 2), ApplyTranspose is analysis (α = Φᵀx; the
// transpose is the inverse for orthonormal Φ). dst and src must both have
// length Dim() and must not alias.
type Operator interface {
	Dim() int
	Apply(dst, src []float64)
	ApplyTranspose(dst, src []float64)
}

// ErrNoOperator reports a (kind, n) pair with no operator implementation.
var ErrNoOperator = errors.New("basis: no operator for kind")

// OperatorFor returns the matrix-free operator for the given basis family
// and size. DCT/DFT get the FFT fast path when n is a power of two and fall
// back to their dense matrix otherwise; Haar (power-of-two only) always
// uses the O(n) lifting cascade; Identity is free. Learned
// bases have no (kind, n) identity — wrap the learned matrix with
// FromMatrix instead.
func OperatorFor(kind Kind, n int) (Operator, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative size %d", ErrBadSize, n)
	}
	switch kind {
	case KindIdentity:
		return &identityOp{n: n}, nil
	case KindDCT:
		if fft.IsPow2(n) {
			return newDCTOp(n)
		}
		return denseFallback(kind, n)
	case KindDFT:
		if fft.IsPow2(n) {
			return newDFTOp(n)
		}
		return denseFallback(kind, n)
	case KindHaar:
		if !fft.IsPow2(n) {
			return nil, fmt.Errorf("%w: Haar needs power-of-two size, got %d", ErrBadSize, n)
		}
		return newHaarOp(n), nil
	case KindLearned:
		return nil, fmt.Errorf("%w %q: learned bases need traces, wrap with FromMatrix", ErrNoOperator, kind)
	default:
		return nil, fmt.Errorf("%w %q", ErrNoOperator, kind)
	}
}

// denseFallback wraps the dense DCT or DFT matrix, the one place the
// generators are built outside tests; CachedOperator memoizes the result.
func denseFallback(kind Kind, n int) (Operator, error) {
	if kind == KindDFT {
		return FromMatrix(dft(n))
	}
	return FromMatrix(dct(n))
}

func checkLens(n int, dst, src []float64) {
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("basis: operator buffers %d/%d, want %d", len(dst), len(src), n))
	}
}

// --- identity -----------------------------------------------------------------

type identityOp struct{ n int }

func (o *identityOp) Dim() int { return o.n }
func (o *identityOp) Apply(dst, src []float64) {
	checkLens(o.n, dst, src)
	copy(dst, src)
}
func (o *identityOp) ApplyTranspose(dst, src []float64) { o.Apply(dst, src) }
func (o *identityOp) RowInto(dst []float64, i int) {
	for j := range dst {
		dst[j] = 0
	}
	dst[i] = 1
}

func (o *identityOp) Entry(i, j int) float64 {
	if i == j {
		return 1
	}
	return 0
}

// --- dense matrix wrapper ------------------------------------------------------

// MatrixOp adapts an explicit (square) basis matrix to the Operator
// interface — the route for learned bases and non-power-of-two sizes. Its
// RowInto and Entry read the matrix directly, so the decoders' column
// norms cost O(n) per sensor and each gathered column O(m).
type MatrixOp struct {
	m *mat.Matrix
}

// FromMatrix wraps a square basis matrix as an Operator. The matrix is
// shared, not copied: callers must treat it as read-only.
func FromMatrix(m *mat.Matrix) (*MatrixOp, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: operator needs square basis, got %dx%d", mat.ErrShape, m.Rows, m.Cols)
	}
	return &MatrixOp{m: m}, nil
}

// RowInto copies row i of the wrapped matrix.
func (o *MatrixOp) RowInto(dst []float64, i int) {
	copy(dst, o.m.Data[i*o.m.Cols:(i+1)*o.m.Cols])
}

// Entry reads Φ[i,j] from the wrapped matrix.
func (o *MatrixOp) Entry(i, j int) float64 {
	return o.m.Data[i*o.m.Cols+j]
}

func (o *MatrixOp) Dim() int { return o.m.Cols }
func (o *MatrixOp) Apply(dst, src []float64) {
	if err := mat.MulVecInto(dst, o.m, src); err != nil {
		panic(err)
	}
}
func (o *MatrixOp) ApplyTranspose(dst, src []float64) {
	if err := mat.MulTVecInto(dst, o.m, src); err != nil {
		panic(err)
	}
}

// --- DCT (FFT fast path) -------------------------------------------------------

// dctOp computes the orthonormal DCT-II basis of dct matrix-free via
// Makhoul's n-point FFT method: analysis (ApplyTranspose) is even/odd
// permutation, FFT, half-sample twiddle; synthesis (Apply) inverts the same
// pipeline (DCT-III). Both directions exist as a single-vector kernel and a
// paired one that carries two real vectors through one complex FFT (analysis
// separates the two spectra by conjugate symmetry, synthesis combines them by
// linearity). The synthesis kernels address vector element i at
// offset+i·stride and gather all input before writing any output (so dst may
// be src); the analysis kernels read contiguous vectors, the paired one
// writing its coefficients split by parity for Separable2D. All share one
// table set.
type dctOp struct {
	n      int
	plan   *fft.Plan
	rev    []int     // bit reversal (synthesis scatters the spectrum through it)
	gather []int     // Makhoul permutation ∘ bit reversal (analysis input)
	scale  []float64 // s(0)=√(1/n), s(k>0)=√(2/n)
	tab    []float64 // full twiddle period: tab[t] = cos(πt/2n), t < 4n
	pool   sync.Pool
	// Transform twiddles with the scale folded in: s(k)·cos|sin(πk/2n) for
	// analysis, cos|sin(πk/2n)/(n·s(k)) — the inverse FFT's 1/n included —
	// for synthesis.
	fwdCos, fwdSin, invCos, invSin []float64
}

type complexScratch struct{ re, im []float64 }

func newComplexPool(n int) sync.Pool {
	return sync.Pool{New: func() any {
		return &complexScratch{re: make([]float64, n), im: make([]float64, n)}
	}}
}

func newDCTOp(n int) (*dctOp, error) {
	plan, err := fft.PlanFor(n)
	if err != nil {
		return nil, err
	}
	o := &dctOp{
		n: n, plan: plan,
		rev: make([]int, n), gather: make([]int, n),
		fwdCos: make([]float64, n), fwdSin: make([]float64, n),
		invCos: make([]float64, n), invSin: make([]float64, n),
		scale: make([]float64, n),
		pool:  newComplexPool(n),
	}
	shift := 64 - bits.TrailingZeros(uint(n))
	for k := 0; k < n; k++ {
		s, c := math.Sincos(math.Pi * float64(k) / (2 * float64(n)))
		o.scale[k] = math.Sqrt(2 / float64(n))
		if k == 0 {
			o.scale[k] = math.Sqrt(1 / float64(n))
		}
		o.fwdCos[k], o.fwdSin[k] = o.scale[k]*c, o.scale[k]*s
		o.invCos[k], o.invSin[k] = c/(o.scale[k]*float64(n)), s/(o.scale[k]*float64(n))
		// FFT input slot r holds x[2r] for r < n/2 and x[2(n−1−r)+1] above.
		r := int(bits.Reverse64(uint64(k)) >> shift)
		o.rev[k], o.gather[k] = r, 2*r
		if 2*r >= n {
			o.gather[k] = 2*n - 1 - 2*r
		}
	}
	o.tab = make([]float64, 4*n)
	for t := range o.tab {
		o.tab[t] = math.Cos(math.Pi * float64(t) / (2 * float64(n)))
	}
	return o, nil
}

func (o *dctOp) Dim() int { return o.n }

// ApplyTranspose computes α = Φᵀx, the orthonormal DCT-II of x.
func (o *dctOp) ApplyTranspose(dst, src []float64) {
	checkLens(o.n, dst, src)
	if o.n == 1 {
		dst[0] = src[0]
		return
	}
	sc := o.pool.Get().(*complexScratch)
	o.analyze1(dst, src, sc.re, sc.im)
	o.pool.Put(sc)
}

// Apply computes x = Φα, the orthonormal DCT-III inverse of ApplyTranspose.
func (o *dctOp) Apply(dst, src []float64) {
	checkLens(o.n, dst, src)
	o.synthPairs(dst, src, 1, 0, 1)
}

// synthPairs synthesizes count vectors, vector v holding element i at
// v·vecStride + i·stride of src and dst alike: two per complex FFT, an odd
// last one (and n == 1) through the single-vector kernel, all on one
// scratch. dst may be src.
func (o *dctOp) synthPairs(dst, src []float64, count, vecStride, stride int) {
	if o.n == 1 {
		for v := 0; v < count; v++ {
			dst[v*vecStride] = src[v*vecStride]
		}
		return
	}
	sc := o.pool.Get().(*complexScratch)
	re, im := sc.re, sc.im
	for v := 0; v < count; v += 2 {
		a, b := v*vecStride, (v+1)*vecStride
		if v+1 < count {
			o.synth2(dst, src, a, b, stride, re, im)
		} else {
			o.synth1(dst, src, a, stride, re, im)
		}
	}
	o.pool.Put(sc)
}

// analyze1: V = FFT(permuted x); α[k] = s(k)·Re(e^{-jπk/2n}·V[k]).
func (o *dctOp) analyze1(dst, src, re, im []float64) {
	for i, g := range o.gather {
		re[i], im[i] = src[g], 0
	}
	o.plan.Butterflies(re, im, false)
	for k, c := range o.fwdCos {
		dst[k] = c*re[k] + o.fwdSin[k]*im[k]
	}
}

// synth1 rebuilds V[k] = e^{jπk/2n}·(X2[k] − j·X2[n−k]) from the unscaled
// coefficients (the conjugate symmetry of a real signal's spectrum), inverts
// it, and undoes the even/odd permutation.
func (o *dctOp) synth1(dst, src []float64, a, st int, re, im []float64) {
	n := o.n
	re[0], im[0] = o.invCos[0]*src[a], 0
	for k := 1; k < n; k++ {
		c, s, r := o.invCos[k], o.invSin[k], o.rev[k]
		x, y := src[a+k*st], src[a+(n-k)*st]
		re[r], im[r] = c*x+s*y, s*x-c*y
	}
	o.plan.Butterflies(re, im, true)
	for i := 0; i < n/2; i++ {
		dst[a+2*i*st], dst[a+(2*i+1)*st] = re[i], re[n-1-i]
	}
}

// synth2 inverts Z = Va + j·Vb once: the real part is xa's permuted signal,
// the imaginary part xb's.
func (o *dctOp) synth2(dst, src []float64, a, b, st int, re, im []float64) {
	n := o.n
	re[0], im[0] = o.invCos[0]*src[a], o.invCos[0]*src[b]
	for k := 1; k < n; k++ {
		c, s, r := o.invCos[k], o.invSin[k], o.rev[k]
		xa, ya := src[a+k*st], src[a+(n-k)*st]
		xb, yb := src[b+k*st], src[b+(n-k)*st]
		re[r], im[r] = (c*xa+s*ya)-(s*xb-c*yb), (s*xa-c*ya)+(c*xb+s*yb)
	}
	o.plan.Butterflies(re, im, true)
	for i := 0; i < n/2; i++ {
		dst[a+2*i*st], dst[a+(2*i+1)*st] = re[i], re[n-1-i]
		dst[b+2*i*st], dst[b+(2*i+1)*st] = im[i], im[n-1-i]
	}
}

// RowInto fills dst with row i of Φ from the twiddle table: Φ[i,k] =
// s(k)·cos((2i+1)πk/2n), and the cosine's table index k(2i+1) mod 4n
// advances by a fixed step per k, so each entry is one lookup and one
// multiply — the inner loop of OMP's column-norm scan, one row per
// measurement.
func (o *dctOp) RowInto(dst []float64, i int) {
	n := o.n
	dst[0] = o.scale[0]
	period := 4 * n
	step := (2*i + 1) % period
	t := step
	for k := 1; k < n; k++ {
		dst[k] = o.scale[k] * o.tab[t]
		t += step
		if t >= period {
			t -= period
		}
	}
}

// Entry reads Φ[i,j] = s(j)·cos((2i+1)πj/2n) from the twiddle table. The
// index is taken in uint64: j(2i+1) passes 2³¹ − 1 from n = 65536 on.
func (o *dctOp) Entry(i, j int) float64 {
	return o.scale[j] * o.tab[uint64(j)*uint64(2*i+1)%uint64(4*o.n)]
}

// --- DFT (FFT fast path) -------------------------------------------------------

// dftOp computes the real-embedded Fourier basis of dft matrix-free:
// the real coefficient layout [const, cos f, sin f, …, Nyquist] is packed
// from (un-packed into) the conjugate-symmetric complex spectrum of one
// n-point FFT.
type dftOp struct {
	n      int
	plan   *fft.Plan
	c0     float64   // √(1/n)
	amp    float64   // √(2/n)
	cosTab []float64 // cos(2πt/n), t < n — row/entry twiddles
	sinTab []float64 // sin(2πt/n), t < n
	pool   sync.Pool
}

func newDFTOp(n int) (*dftOp, error) {
	plan, err := fft.PlanFor(n)
	if err != nil {
		return nil, err
	}
	o := &dftOp{
		n: n, plan: plan,
		c0:   math.Sqrt(1 / float64(n)),
		amp:  math.Sqrt(2 / float64(n)),
		pool: newComplexPool(n),
	}
	o.cosTab, o.sinTab = make([]float64, n), make([]float64, n)
	for t := 0; t < n; t++ {
		o.sinTab[t], o.cosTab[t] = math.Sincos(2 * math.Pi * float64(t) / float64(n))
	}
	return o, nil
}

func (o *dftOp) Dim() int { return o.n }

// ApplyTranspose computes α = Φᵀx: one forward FFT, then the paired
// cosine/sine columns read off the real and imaginary spectrum parts.
func (o *dftOp) ApplyTranspose(dst, src []float64) {
	n := o.n
	checkLens(n, dst, src)
	if n == 1 {
		dst[0] = src[0]
		return
	}
	sc := o.pool.Get().(*complexScratch)
	re, im := sc.re, sc.im
	copy(re, src)
	for i := range im {
		im[i] = 0
	}
	o.plan.Forward(re, im)
	dst[0] = o.c0 * re[0]
	for f := 1; f < n/2; f++ {
		dst[2*f-1] = o.amp * re[f]
		dst[2*f] = -o.amp * im[f]
	}
	dst[n-1] = o.c0 * re[n/2] // Nyquist alternating mode
	o.pool.Put(sc)
}

// Apply computes x = Φα: the coefficients are packed into a
// conjugate-symmetric spectrum and inverted with one inverse FFT.
func (o *dftOp) Apply(dst, src []float64) {
	n := o.n
	checkLens(n, dst, src)
	if n == 1 {
		dst[0] = src[0]
		return
	}
	sc := o.pool.Get().(*complexScratch)
	re, im := sc.re, sc.im
	re[0] = float64(n) * o.c0 * src[0]
	im[0] = 0
	half := float64(n) / 2
	for f := 1; f < n/2; f++ {
		re[f] = half * o.amp * src[2*f-1]
		im[f] = -half * o.amp * src[2*f]
		re[n-f] = re[f]
		im[n-f] = -im[f]
	}
	re[n/2] = float64(n) * o.c0 * src[n-1]
	im[n/2] = 0
	o.plan.Inverse(re, im)
	copy(dst, re)
	o.pool.Put(sc)
}

// RowInto fills dst with row i of Φ from the twiddle tables: Φ[i,0] =
// √(1/n), Φ[i,2f−1] = √(2/n)·cos(2πfi/n), Φ[i,2f] = √(2/n)·sin(2πfi/n),
// Φ[i,n−1] = √(1/n)·(−1)^i. Frequency f reads twiddle fi mod n, so the
// index advances by a fixed step per frequency.
func (o *dftOp) RowInto(dst []float64, i int) {
	n := o.n
	dst[0] = o.c0
	if n == 1 {
		return
	}
	step := i % n
	t := step
	for f := 1; f < n/2; f++ {
		dst[2*f-1] = o.amp * o.cosTab[t]
		dst[2*f] = o.amp * o.sinTab[t]
		t += step
		if t >= n {
			t -= n
		}
	}
	dst[n-1] = o.Entry(i, n-1)
}

// Entry reads Φ[i,j] from the packed real-DFT layout: column 0 is the DC
// atom, column n−1 the Nyquist atom, and columns (2f−1, 2f) the cos/sin
// pair at frequency f, whose twiddle index fi mod n is taken in uint64.
func (o *dftOp) Entry(i, j int) float64 {
	n := o.n
	t := uint64((j+1)/2) * uint64(i) % uint64(n)
	switch {
	case j == 0:
		return o.c0
	case j == n-1:
		if i%2 == 0 {
			return o.c0
		}
		return -o.c0
	case j%2 == 1:
		return o.amp * o.cosTab[t]
	default:
		return o.amp * o.sinTab[t]
	}
}

// --- Haar (lifting cascade) ----------------------------------------------------

// haarOp computes the orthonormal Haar wavelet basis matrix-free via
// the O(n) averaging/differencing cascade: each pass halves the working
// length, emitting detail coefficients for the current level directly into
// the output.
type haarOp struct {
	n    int
	pool sync.Pool
}

func newHaarOp(n int) *haarOp {
	return &haarOp{n: n, pool: sync.Pool{New: func() any {
		s := make([]float64, 2*n)
		return &s
	}}}
}

func (o *haarOp) Dim() int { return o.n }

const invSqrt2 = 1 / math.Sqrt2

// ApplyTranspose computes α = Φᵀx, the forward Haar transform.
func (o *haarOp) ApplyTranspose(dst, src []float64) {
	n := o.n
	checkLens(n, dst, src)
	if n == 1 {
		dst[0] = src[0]
		return
	}
	sp := o.pool.Get().(*[]float64)
	buf := (*sp)[:n]
	avg := (*sp)[n : 2*n]
	copy(buf, src)
	for length := n; length >= 2; length >>= 1 {
		half := length >> 1
		for i := 0; i < half; i++ {
			avg[i] = (buf[2*i] + buf[2*i+1]) * invSqrt2
			dst[half+i] = (buf[2*i] - buf[2*i+1]) * invSqrt2
		}
		copy(buf[:half], avg[:half])
	}
	dst[0] = buf[0]
	o.pool.Put(sp)
}

// Apply computes x = Φα, the inverse cascade.
func (o *haarOp) Apply(dst, src []float64) {
	n := o.n
	checkLens(n, dst, src)
	if n == 1 {
		dst[0] = src[0]
		return
	}
	sp := o.pool.Get().(*[]float64)
	buf := (*sp)[:n]
	buf[0] = src[0]
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		for i := half - 1; i >= 0; i-- {
			a := buf[i]
			d := src[half+i]
			buf[2*i] = (a + d) * invSqrt2
			buf[2*i+1] = (a - d) * invSqrt2
		}
	}
	copy(dst, buf)
	o.pool.Put(sp)
}

// --- separable 2-D -------------------------------------------------------------

// Separable2D applies the 2-D basis Φ₂ = Φc ⊗ Φr on a column-stacked
// field (paper Eq. 1: coefficient jc·h + jr is the outer product of row
// mode jr and column mode jc) through its factors: the row
// factor transforms every field column, the column factor every field row.
// Cost is O(h·w·(Cr+Cc)) where Cr/Cc are the factor costs — for FFT factors
// that is O(n log n) against the O(n²) Kronecker matrix, and the (h·w)²
// product matrix is never materialized. Factors may be any Operator,
// including another Separable2D (the spatio-temporal decoder stacks a
// temporal factor on a spatial one). When both factors are FFT-backed DCTs
// the stages run on the column-stacked layout two vectors per FFT (the
// paired route below); otherwise each vector goes through the factor's
// Apply/ApplyTranspose with a transpose between the stages.
type Separable2D struct {
	row, col Operator
	h, w, n  int
	pool     sync.Pool
	// rd/cd are the factors when both are FFT-backed DCTs, nil otherwise.
	// slot[c] is the stage-2 FFT input row field column c feeds: the
	// inverse of the column factor's Makhoul bit-reversed gather.
	rd, cd *dctOp
	slot   []int
	// rowTab holds Φr row by row, each row split into its even-index
	// coefficients then its odd-index ones (h·h values) — the scattered
	// analysis's first stage. Built on first use.
	rowTabOnce sync.Once
	rowTab     []float64
	// rowCols/colCols memoize the factors' synthesis columns for
	// FactorColumns.
	rowCols, colCols colMemo
}

// NewSeparable2D builds the separable operator for an h-row × w-col field
// from its row factor (size h) and column factor (size w).
func NewSeparable2D(rowOp, colOp Operator) *Separable2D {
	h, w := rowOp.Dim(), colOp.Dim()
	n := h * w
	o := &Separable2D{
		row: rowOp, col: colOp, h: h, w: w, n: n,
		pool: sync.Pool{New: func() any {
			s := make([]float64, 2*n)
			return &s
		}},
		rowCols: newColMemo(rowOp), colCols: newColMemo(colOp),
	}
	rd, rok := rowOp.(*dctOp)
	cd, cok := colOp.(*dctOp)
	if rok && cok {
		o.rd, o.cd = rd, cd
		o.slot = make([]int, w)
		for i, c := range cd.gather {
			o.slot[c] = i
		}
	}
	return o
}

// Factors returns the row and column factor operators.
func (o *Separable2D) Factors() (rowOp, colOp Operator) { return o.row, o.col }

// FactorColumns returns the two factor columns whose outer product is
// column j = jc·h + jr of Φ₂: u = Φr·e_jr (length h) and v = Φc·e_jc
// (length w), so Φ₂[i, j] = u[i mod h]·v[i div h]. Each is the factor's
// own synthesis of the unit vector, memoized per operator on first use;
// the slices are shared and must not be modified.
func (o *Separable2D) FactorColumns(j int) (u, v []float64) {
	return o.rowCols.col(j % o.h), o.colCols.col(j / o.h)
}

// colMemo caches a factor's synthesis columns Φf·e_j, one slot per column,
// filled on first use. A hit is one atomic load and takes no lock.
// Concurrent first uses of a column each compute it, and all get the
// value the first store published: every fill runs the same computation
// on the same input, so the bits agree whichever store wins. Only columns
// some caller asked for hold memory.
type colMemo struct {
	op   Operator
	cols []atomic.Pointer[[]float64]
}

func newColMemo(op Operator) colMemo {
	return colMemo{op: op, cols: make([]atomic.Pointer[[]float64], op.Dim())}
}

// col returns Φf·e_j.
func (m *colMemo) col(j int) []float64 {
	if c := m.cols[j].Load(); c != nil {
		return *c
	}
	return m.fill(j)
}

// fill synthesizes column j and publishes it unless another caller got
// there first. A separable factor (the spatial operator of a joint
// space-time basis) builds it as the outer product of its own memoized
// factor columns, O(n) instead of one synthesis per column.
func (m *colMemo) fill(j int) []float64 {
	n := m.op.Dim()
	c := make([]float64, n)
	if s, ok := m.op.(*Separable2D); ok {
		u, v := s.FactorColumns(j)
		for i := range c {
			c[i] = u[i%s.h] * v[i/s.h]
		}
	} else {
		e := make([]float64, n)
		e[j] = 1
		m.op.Apply(c, e)
	}
	if m.cols[j].CompareAndSwap(nil, &c) {
		return c
	}
	return *m.cols[j].Load()
}

func (o *Separable2D) Dim() int { return o.n }

// Apply computes x = Φ₂α. On the paired route both stages run strided on
// the column-stacked layout itself, stage 2 in place over dst's rows
// (element stride h).
func (o *Separable2D) Apply(dst, src []float64) {
	checkLens(o.n, dst, src)
	if o.n == 0 {
		return
	}
	if o.rd != nil {
		o.rd.synthPairs(dst, src, o.w, o.h, 1)
		o.cd.synthPairs(dst, dst, o.h, 1, o.h)
		return
	}
	o.generic(dst, src, false)
}

// ApplyTranspose computes α = Φ₂ᵀx. On the paired route stage 1 runs the
// row factor over the field's columns two per FFT, all w/2 pairs in one
// batched FFT, writing each column's coefficients straight into the column
// factor's paired FFT planes (see rowStage); stage 2 is one batched FFT
// over those planes (see colStage). A single-row or single-column field is
// one factor analysis.
func (o *Separable2D) ApplyTranspose(dst, src []float64) {
	checkLens(o.n, dst, src)
	switch {
	case o.n == 0:
	case o.rd == nil:
		o.generic(dst, src, true)
	case o.h == 1:
		o.cd.ApplyTranspose(dst, src)
	case o.w == 1:
		o.rd.ApplyTranspose(dst, src)
	default:
		sp := o.pool.Get().(*[]float64)
		re, im := (*sp)[:o.n/2], (*sp)[o.n/2:o.n]
		o.rowStage(re, im, src, (*sp)[o.n:])
		o.colStage(dst, re, im)
		o.pool.Put(sp)
	}
}

// ApplyTransposeScattered computes α = Φ₂ᵀx for the x that is vals[i] at
// locs[i] and zero elsewhere; duplicate locations accumulate. dst has
// length Dim(), and every location must lie in [0, Dim()). The result
// agrees with scattering into a zero field and calling ApplyTranspose to
// a few ulps.
//
// On the paired route with few locations, stage 1 skips the field: each
// location adds vals[i]·Φr[row, :] into the stage-2 planes, O(M·h) instead
// of w/2 row-factor FFTs (scatterWins decides from M, h and w). Otherwise
// the values are scattered into a zeroed field and analyzed as
// ApplyTranspose does, which is bit-identical to doing that by hand.
func (o *Separable2D) ApplyTransposeScattered(dst []float64, locs []int, vals []float64) {
	n := o.n
	if len(dst) != n || len(locs) != len(vals) {
		panic(fmt.Sprintf("basis: scattered analysis dst %d for dim %d, %d locations for %d values", len(dst), n, len(locs), len(vals)))
	}
	paired := o.rd != nil && o.h > 1 && o.w > 1
	sp := o.pool.Get().(*[]float64)
	if paired && scatterWins(len(locs), o.h, o.w) {
		re, im := (*sp)[:n/2], (*sp)[n/2:n]
		o.rowTabOnce.Do(o.buildRowTab)
		o.scatterStage(re, im, locs, vals)
		o.colStage(dst, re, im)
		o.pool.Put(sp)
		return
	}
	x := (*sp)[n:]
	clear(x)
	for i, l := range locs {
		x[l] += vals[i]
	}
	if paired {
		// The field is dead once rowStage has gathered it, so the planes
		// take its place and the batch runs in the buffer's first half.
		re, im := x[:n/2], x[n/2:]
		o.rowStage(re, im, x, (*sp)[:n])
		o.colStage(dst, re, im)
	} else {
		o.ApplyTranspose(dst, x)
	}
	o.pool.Put(sp)
}

// scatterWins is the front-end rule of ApplyTransposeScattered, an op
// count in M, h and w alone: the scattered stage 1 costs M·h multiply-adds
// (one factor row per location), the dense one a count per field element
// that grows as log₂h − 1 (w/2 paired h-point FFTs with their gather and
// twiddles), and stage 2 is the same for both. The constant 4 is fitted
// to the crossovers measured on the vector kernels; DESIGN.md §9 lists
// them beside the rule, from 16×16 to 256×256.
func scatterWins(m, h, w int) bool {
	return m < 4*w*(bits.Len(uint(h))-2)
}

// buildRowTab fills rowTab from the row factor's table rows (RowInto).
func (o *Separable2D) buildRowTab() {
	h, half := o.h, o.h/2
	tab := make([]float64, h*h)
	row := make([]float64, h)
	for r := 0; r < h; r++ {
		o.rd.RowInto(row, r)
		t := tab[r*h : (r+1)*h]
		for p := 0; p < half; p++ {
			t[p], t[half+p] = row[2*p], row[2*p+1]
		}
	}
	o.rowTab = tab
}

// Stage-2 planes: the column factor's paired FFT input for all h/2 pairs
// of coefficient rows at once, in fft.Plan.BatchButterflies layout — row i
// of a plane (h/2 contiguous values) is FFT input slot i, which holds field
// column gather[i]; value p of the row belongs to pair p, whose real part
// (re) carries row-factor coefficient 2p and whose imaginary part (im)
// carries coefficient 2p+1. Stage 1 fills the planes, colStage finishes.

// rowStage is the dense stage 1: the row factor's paired analysis of field
// columns (2v, 2v+1) for all w/2 pairs v at once. It gathers every pair's
// Makhoul-permuted FFT input into batch (n values: the real plane, then
// the imaginary one, pair v's slot i at i·w/2 + v), runs one
// BatchButterflies call, and separates each pair's spectrum into its two
// columns' plane rows. Each pair sees the schedule and the expressions of
// a paired analysis of its own, so the planes hold exactly what w/2
// separate FFTs leave. src may overlap re and im, not batch.
func (o *Separable2D) rowStage(re, im, src, batch []float64) {
	rd, h, half, pairs := o.rd, o.h, o.h/2, o.w/2
	zr, zi := batch[:o.n/2], batch[o.n/2:o.n]
	for i, g := range rd.gather {
		br, bi := zr[i*pairs:][:pairs], zi[i*pairs:][:pairs]
		for v := range br {
			br[v], bi[v] = src[2*v*h+g], src[(2*v+1)*h+g]
		}
	}
	rd.plan.BatchButterflies(zr, zi, pairs, false)
	// Z = Xa + j·Xb separates as Xa[k] = (Z[k] + Z*[h−k])/2 and Xb[k] =
	// (Z[k] − Z*[h−k])/2j; coefficient k lands at p = k/2 of the real
	// plane (k even) or the imaginary one (k odd).
	for k := 0; k < h; k++ {
		j := (h - k) & (h - 1)
		c, s := 0.5*rd.fwdCos[k], 0.5*rd.fwdSin[k]
		rk, ik := zr[k*pairs:][:pairs], zi[k*pairs:][:pairs]
		rj, ij := zr[j*pairs:][:pairs], zi[j*pairs:][:pairs]
		plane := re[k>>1:]
		if k&1 == 1 {
			plane = im[k>>1:]
		}
		for v := range rk {
			plane[o.slot[2*v]*half] = c*(rk[v]+rj[v]) + s*(ik[v]-ij[v])
			plane[o.slot[2*v+1]*half] = c*(ik[v]+ij[v]) - s*(rk[v]-rj[v])
		}
	}
}

// scatterStage is the scattered stage 1: location l = c·h + r adds
// v·Φr[r, 2p] to re and v·Φr[r, 2p+1] to im in column c's plane row.
func (o *Separable2D) scatterStage(re, im []float64, locs []int, vals []float64) {
	clear(re)
	clear(im)
	// The paired route's h is a power of two.
	mat.ScatterAxpyPair(re, im, o.rowTab, o.h, o.slot, locs, vals)
}

// colStage is stage 2: one batched FFT over the h/2 pairs, then the paired
// kernel's spectrum separation and half-sample twiddle, written row by row
// of the column-stacked output — α[k·h + 2p] and α[k·h + 2p+1] are
// neighbours, so the writes are contiguous.
func (o *Separable2D) colStage(dst, re, im []float64) {
	cd, h, w, half := o.cd, o.h, o.w, o.h/2
	cd.plan.BatchButterflies(re, im, half, false)
	for k := 0; k < w; k++ {
		j := (w - k) & (w - 1)
		c, s := 0.5*cd.fwdCos[k], 0.5*cd.fwdSin[k]
		rk, ik := re[k*half:][:half], im[k*half:][:half]
		rj, ij := re[j*half:][:half], im[j*half:][:half]
		mat.Separate(dst[k*h:][:h], rk, ik, rj, ij, c, s)
	}
}

// generic is the per-vector route for factors without the paired kernels.
func (o *Separable2D) generic(dst, src []float64, transpose bool) {
	h, w, n := o.h, o.w, o.n
	sp := o.pool.Get().(*[]float64)
	t1 := (*sp)[:n]
	t2 := (*sp)[n : 2*n]
	// Stage 1: row factor over every (contiguous) field column.
	for c := 0; c < w; c++ {
		if transpose {
			o.row.ApplyTranspose(t1[c*h:(c+1)*h], src[c*h:(c+1)*h])
		} else {
			o.row.Apply(t1[c*h:(c+1)*h], src[c*h:(c+1)*h])
		}
	}
	// Transpose so field rows become contiguous.
	for c := 0; c < w; c++ {
		for r := 0; r < h; r++ {
			t2[r*w+c] = t1[c*h+r]
		}
	}
	// Stage 2: column factor over every field row.
	for r := 0; r < h; r++ {
		if transpose {
			o.col.ApplyTranspose(t1[r*w:(r+1)*w], t2[r*w:(r+1)*w])
		} else {
			o.col.Apply(t1[r*w:(r+1)*w], t2[r*w:(r+1)*w])
		}
	}
	// Transpose back into column-stacked layout.
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			dst[c*h+r] = t1[r*w+c]
		}
	}
	o.pool.Put(sp)
}

// --- convenience ---------------------------------------------------------------

// OpAnalyze returns α = Φᵀx through an operator (allocating form of
// ApplyTranspose).
func OpAnalyze(op Operator, x []float64) ([]float64, error) {
	if len(x) != op.Dim() {
		return nil, fmt.Errorf("%w: signal %d for operator dim %d", mat.ErrShape, len(x), op.Dim())
	}
	out := make([]float64, op.Dim())
	op.ApplyTranspose(out, x)
	return out, nil
}
