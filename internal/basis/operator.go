package basis

// Matrix-free basis operators. The dense constructors in basis.go
// materialize Φ as an explicit n×n matrix, so every decoder iteration pays
// O(n²) (and the 2-D Kronecker bases square that). An Operator exposes the
// same linear map through Apply/ApplyTranspose at O(n log n) — DCT-II/III
// and the real-embedded DFT ride a shared radix-2 FFT core (internal/fft),
// Haar runs the O(n) lifting cascade, and Separable2D applies a 2-D basis
// through its row/column factors without ever forming the Kronecker
// product. The dense matrices remain the reference implementation: the
// OperatorFor factory falls back to a matrix-backed operator for sizes or
// kinds the fast paths cannot serve (non-power-of-two DCT/DFT, learned
// bases), and the property tests pin every fast path to its dense
// counterpart within 1e-9.
//
// Determinism: operators never spawn goroutines, the FFT butterfly order is
// a fixed function of n, and scratch buffers are fully overwritten before
// use — a given input produces bit-identical output on every call at every
// GOMAXPROCS. Operators are immutable after construction and safe for
// concurrent use; per-call scratch comes from an internal sync.Pool.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

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

// RowAccessor is an optional Operator refinement for producing a single
// row Φ[i,·] directly, in O(n), instead of the O(n log n) analysis Φᵀe_i.
// dst must have length Dim(). The decoders use it for their column-norm
// scans, which would otherwise cost one full transform per measurement.
// Closed-form rows (trig recurrences) may differ from the FFT transform
// path by a few ulps — well inside the documented 1e-9 dense-equivalence
// bound, and pinned to it by the operator property tests.
type RowAccessor interface {
	RowInto(dst []float64, i int)
}

// EntryAccessor is an optional Operator refinement for reading one matrix
// entry Φ[i,j] in O(1). The decoders use it to gather a dictionary column
// restricted to the m sampled rows in O(m) — against O(n log n) for the
// synthesize-and-gather fallback — when admitting atoms to the support.
// Same precision contract as RowAccessor.
type EntryAccessor interface {
	Entry(i, j int) float64
}

// OperatorFor returns the matrix-free operator for the given basis family
// and size. DCT/DFT get the FFT fast path when n is a power of two and fall
// back to the memoized dense matrix otherwise; Haar (power-of-two only, as
// with New) always uses the O(n) lifting cascade; Identity is free. Learned
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

func denseFallback(kind Kind, n int) (Operator, error) {
	m, err := Cached(kind, n)
	if err != nil {
		return nil, err
	}
	return FromMatrix(m)
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

// --- dense reference wrapper ---------------------------------------------------

// MatrixOp adapts an explicit (square) basis matrix to the Operator
// interface — the reference path for learned bases and non-power-of-two
// sizes. The decoders recognize it and run their dense kernels directly.
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

// Matrix returns the wrapped dense basis.
func (o *MatrixOp) Matrix() *mat.Matrix { return o.m }

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

// dctOp computes the orthonormal DCT-II basis of basis.DCT matrix-free via
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

// rowTableLimit bounds the closed-form row/entry twiddle tables. The DCT
// table carries one full period (4n values), so n ≤ 8192 keeps it at
// 256 KB; beyond that RowInto falls back to recurrence chains and Entry
// to direct trig.
const rowTableLimit = 8192

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
	if n <= rowTableLimit {
		o.tab = make([]float64, 4*n)
		for t := range o.tab {
			o.tab[t] = math.Cos(math.Pi * float64(t) / (2 * float64(n)))
		}
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

// analyzePair transforms z = xa + j·xb once; the spectra separate as
// Va[k] = (Z[k] + Z*[n−k])/2 and Vb[k] = (Z[k] − Z*[n−k])/2j. The
// coefficients come out split by parity — α[2p] of xa into ea[p], α[2p+1]
// into oa[p], likewise xb into eb/ob — which is the layout of the paired
// FFT planes a 2-D analysis feeds its second stage from (n ≥ 2).
func (o *dctOp) analyzePair(xa, xb, ea, oa, eb, ob, re, im []float64) {
	for i, g := range o.gather {
		re[i], im[i] = xa[g], xb[g]
	}
	o.plan.Butterflies(re, im, false)
	n := o.n
	for k := 0; k < n; k++ {
		j := (n - k) & (n - 1)
		c, s := 0.5*o.fwdCos[k], 0.5*o.fwdSin[k]
		va := c*(re[k]+re[j]) + s*(im[k]-im[j])
		vb := c*(im[k]+im[j]) - s*(re[k]-re[j])
		if k&1 == 0 {
			ea[k>>1], eb[k>>1] = va, vb
		} else {
			oa[k>>1], ob[k>>1] = va, vb
		}
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

// RowInto fills dst with row i of Φ in closed form: Φ[i,k] =
// s(k)·cos((2i+1)πk/2n). The cosine argument advances by a fixed step of
// the table period — k(2i+1) mod 4n — so with the precomputed twiddle
// table each entry is one lookup and one multiply, exact to the table's
// own cos calls. Above rowTableLimit, entries are generated by the
// stride-4 Chebyshev recurrence cos((k+4)θ) = 2cos(4θ)·cos(kθ) −
// cos((k−4)θ): a stride-1 chain is latency-bound on its multiply-add
// dependency, while four interleaved chains keep the FPU pipeline full —
// this is the inner loop of the decoders' column-norm scan, one row per
// measurement.
func (o *dctOp) RowInto(dst []float64, i int) {
	n := o.n
	dst[0] = o.scale[0]
	if n == 1 {
		return
	}
	if o.tab != nil {
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
		return
	}
	x := (2*float64(i) + 1) * math.Pi / (2 * float64(n))
	// One trig call per row: cos(kx) for k < 8 follows from cos(x) by the
	// stride-1 recurrence, and those eight values seed the chains.
	c1 := math.Cos(x)
	var w [8]float64
	w[0], w[1] = 1, c1
	t := 2 * c1
	for k := 2; k < 8; k++ {
		w[k] = t*w[k-1] - w[k-2]
	}
	lim := n
	if lim > 8 {
		lim = 8
	}
	for k := 1; k < lim; k++ {
		dst[k] = o.scale[k] * w[k]
	}
	if n <= 8 {
		return
	}
	c4 := 2 * w[4]
	e0, e1, e2, e3 := w[0], w[1], w[2], w[3]
	f0, f1, f2, f3 := w[4], w[5], w[6], w[7]
	for k := 8; k+3 < n; k += 4 {
		g0 := c4*f0 - e0
		g1 := c4*f1 - e1
		g2 := c4*f2 - e2
		g3 := c4*f3 - e3
		dst[k] = o.scale[k] * g0
		dst[k+1] = o.scale[k+1] * g1
		dst[k+2] = o.scale[k+2] * g2
		dst[k+3] = o.scale[k+3] * g3
		e0, e1, e2, e3 = f0, f1, f2, f3
		f0, f1, f2, f3 = g0, g1, g2, g3
	}
}

// Entry evaluates Φ[i,j] = s(j)·cos((2i+1)πj/2n) — a table lookup when
// the twiddle table exists, direct trig otherwise.
func (o *dctOp) Entry(i, j int) float64 {
	if o.tab != nil {
		return o.scale[j] * o.tab[j*(2*i+1)%(4*o.n)]
	}
	return o.scale[j] * math.Cos(float64(j)*(2*float64(i)+1)*math.Pi/(2*float64(o.n)))
}

// --- DFT (FFT fast path) -------------------------------------------------------

// dftOp computes the real-embedded Fourier basis of basis.DFT matrix-free:
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
	if n <= rowTableLimit {
		o.cosTab = make([]float64, n)
		o.sinTab = make([]float64, n)
		for t := 0; t < n; t++ {
			o.sinTab[t], o.cosTab[t] = math.Sincos(2 * math.Pi * float64(t) / float64(n))
		}
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

// RowInto fills dst with row i of Φ in closed form — Φ[i,0] = √(1/n),
// Φ[i,2f−1] = √(2/n)·cos(2πfi/n), Φ[i,2f] = √(2/n)·sin(2πfi/n),
// Φ[i,n−1] = √(1/n)·(−1)^i. Four interleaved rotation chains advance by
// 4φ per step (φ = 2πi/n) so the loop is throughput- rather than
// latency-bound; see the matching note on (*dctOp).RowInto.
func (o *dftOp) RowInto(dst []float64, i int) {
	n := o.n
	dst[0] = o.c0
	if n == 1 {
		return
	}
	half := n / 2
	if o.cosTab != nil {
		// Table path: frequency f at row i reads twiddle f·i mod n, so
		// the index advances by a fixed step per frequency.
		step := i % n
		t := step
		for f := 1; f < half; f++ {
			dst[2*f-1] = o.amp * o.cosTab[t]
			dst[2*f] = o.amp * o.sinTab[t]
			t += step
			if t >= n {
				t -= n
			}
		}
		if i%2 == 0 {
			dst[n-1] = o.c0
		} else {
			dst[n-1] = -o.c0
		}
		return
	}
	phi := 2 * math.Pi * float64(i) / float64(n)
	// One trig call per row: higher harmonics follow from (cos φ, sin φ)
	// by angle addition, seeding four chains that each advance by 4φ.
	s1, c1 := math.Sincos(phi)
	cA, sA := c1, s1
	cB, sB := c1*c1-s1*s1, s1*c1+c1*s1
	cC, sC := cB*c1-sB*s1, sB*c1+cB*s1
	cD, sD := cC*c1-sC*s1, sC*c1+cC*s1
	c4, s4 := cD, sD
	f := 1
	for ; f+3 < half; f += 4 {
		dst[2*f-1] = o.amp * cA
		dst[2*f] = o.amp * sA
		dst[2*f+1] = o.amp * cB
		dst[2*f+2] = o.amp * sB
		dst[2*f+3] = o.amp * cC
		dst[2*f+4] = o.amp * sC
		dst[2*f+5] = o.amp * cD
		dst[2*f+6] = o.amp * sD
		cA, sA = cA*c4-sA*s4, sA*c4+cA*s4
		cB, sB = cB*c4-sB*s4, sB*c4+cB*s4
		cC, sC = cC*c4-sC*s4, sC*c4+cC*s4
		cD, sD = cD*c4-sD*s4, sD*c4+cD*s4
	}
	// Frequencies 1..half−1 are an odd count, so up to three remain; the
	// chains already hold them (A = f, B = f+1, C = f+2 after each step).
	for j := 0; f < half; f, j = f+1, j+1 {
		switch j {
		case 0:
			dst[2*f-1], dst[2*f] = o.amp*cA, o.amp*sA
		case 1:
			dst[2*f-1], dst[2*f] = o.amp*cB, o.amp*sB
		default:
			dst[2*f-1], dst[2*f] = o.amp*cC, o.amp*sC
		}
	}
	if i%2 == 0 {
		dst[n-1] = o.c0
	} else {
		dst[n-1] = -o.c0
	}
}

// Entry evaluates Φ[i,j] from the packed real-DFT layout: column 0 is the
// DC atom, column n−1 the Nyquist atom, and columns (2f−1, 2f) the cos/sin
// pair at frequency f.
func (o *dftOp) Entry(i, j int) float64 {
	n := o.n
	switch {
	case j == 0:
		return o.c0
	case j == n-1:
		if i%2 == 0 {
			return o.c0
		}
		return -o.c0
	case j%2 == 1:
		f := (j + 1) / 2
		if o.cosTab != nil {
			return o.amp * o.cosTab[f*i%n]
		}
		return o.amp * math.Cos(2*math.Pi*float64(f)*float64(i)/float64(n))
	default:
		f := j / 2
		if o.sinTab != nil {
			return o.amp * o.sinTab[f*i%n]
		}
		return o.amp * math.Sin(2*math.Pi*float64(f)*float64(i)/float64(n))
	}
}

// --- Haar (lifting cascade) ----------------------------------------------------

// haarOp computes the orthonormal Haar basis of basis.Haar matrix-free via
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

// RowInto fills dst with row i of Φ = Φᵀe_i; the lifting cascade is
// already O(n), so one analysis of a standard basis vector is row cost.
func (o *haarOp) RowInto(dst []float64, i int) {
	sp := o.pool.Get().(*[]float64)
	e := (*sp)[:o.n]
	for j := range e {
		e[j] = 0
	}
	e[i] = 1
	o.ApplyTranspose(dst, e)
	o.pool.Put(sp)
}

// --- separable 2-D -------------------------------------------------------------

// Separable2D applies the 2-D basis Φ₂ = Φc ⊗ Φr (the operator form of
// Kron2D, same column-stacking convention) through its factors: the row
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
// row factor over the field's columns two per FFT, writing each column's
// coefficients straight into the column factor's paired FFT planes; stage
// 2 is one batched FFT over those planes (see colStage). A single-row or
// single-column field is one factor analysis.
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
		o.rowStage(re, im, src)
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
	re, im, x := (*sp)[:n/2], (*sp)[n/2:n], (*sp)[n:]
	if paired && scatterWins(len(locs), o.h, o.w) {
		o.rowTabOnce.Do(o.buildRowTab)
		o.scatterStage(re, im, locs, vals)
	} else {
		clear(x)
		for i, l := range locs {
			x[l] += vals[i]
		}
		if !paired {
			o.ApplyTranspose(dst, x)
			o.pool.Put(sp)
			return
		}
		o.rowStage(re, im, x)
	}
	o.colStage(dst, re, im)
	o.pool.Put(sp)
}

// scatterWins is the front-end rule of ApplyTransposeScattered, an op
// count in M, h and w alone: the scattered stage 1 costs M·h multiply-adds
// (one factor row per location), the dense one about 2·(log₂h − 1)
// operations per field element (w/2 paired h-point FFTs with their gather
// and twiddles), and stage 2 is the same for both. DESIGN.md §9 lists the
// measured crossovers beside the rule, from 16×16 to 256×256.
func scatterWins(m, h, w int) bool {
	return m < 2*w*(bits.Len(uint(h))-2)
}

// buildRowTab fills rowTab from the row factor's closed-form rows.
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

// rowStage is the dense stage 1: the row factor's paired analysis over
// field columns (c, c+1), each column's coefficients landing in its plane
// row. The arithmetic is the paired kernel's, so the planes hold exactly
// the values the strided route used to leave in dst.
func (o *Separable2D) rowStage(re, im, src []float64) {
	h, half := o.h, o.h/2
	sc := o.rd.pool.Get().(*complexScratch)
	for c := 0; c < o.w; c += 2 {
		a, b := o.slot[c]*half, o.slot[c+1]*half
		o.rd.analyzePair(src[c*h:(c+1)*h], src[(c+1)*h:(c+2)*h],
			re[a:a+half], im[a:a+half], re[b:b+half], im[b:b+half], sc.re, sc.im)
	}
	o.rd.pool.Put(sc)
}

// scatterStage is the scattered stage 1: location l = c·h + r adds
// v·Φr[r, 2p] to re and v·Φr[r, 2p+1] to im in column c's plane row.
func (o *Separable2D) scatterStage(re, im []float64, locs []int, vals []float64) {
	clear(re)
	clear(im)
	h, half := o.h, o.h/2
	for i, l := range locs {
		v := vals[i]
		base := o.slot[l/h] * half
		pr, pi := re[base:][:half], im[base:][:half]
		even := o.rowTab[(l%h)*h:][:half]
		odd := o.rowTab[(l%h)*h+half:][:half]
		for p := range pr {
			pr[p] += v * even[p]
			pi[p] += v * odd[p]
		}
	}
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
		out := dst[k*h:][:h]
		for p := range rk {
			out[2*p] = c*(rk[p]+rj[p]) + s*(ik[p]-ij[p])
			out[2*p+1] = c*(ik[p]+ij[p]) - s*(rk[p]-rj[p])
		}
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

// RowInto fills dst with row i of the 2-D operator: the Kronecker row is
// the outer product of the factor rows, Φ₂[i, jc·h+jr] = Φr[ir,jr]·Φc[ic,jc]
// with ir = i mod h, ic = i div h — O(n) plus two factor rows.
func (o *Separable2D) RowInto(dst []float64, i int) {
	h, w := o.h, o.w
	sp := o.pool.Get().(*[]float64)
	u := (*sp)[:h]
	v := (*sp)[h : h+w]
	factorRow(o.row, u, i%h)
	factorRow(o.col, v, i/h)
	for c := 0; c < w; c++ {
		vc := v[c]
		row := dst[c*h : (c+1)*h]
		for r, ur := range u {
			row[r] = ur * vc
		}
	}
	o.pool.Put(sp)
}

// factorRow extracts one factor row through RowAccessor when available,
// falling back to an analysis of the matching standard basis vector.
func factorRow(op Operator, dst []float64, i int) {
	if ra, ok := op.(RowAccessor); ok {
		ra.RowInto(dst, i)
		return
	}
	e := make([]float64, op.Dim())
	e[i] = 1
	op.ApplyTranspose(dst, e)
}

// --- convenience ---------------------------------------------------------------

// OpAnalyze returns α = Φᵀx through an operator (allocating form of
// ApplyTranspose, mirroring Analyze).
func OpAnalyze(op Operator, x []float64) ([]float64, error) {
	if len(x) != op.Dim() {
		return nil, fmt.Errorf("%w: signal %d for operator dim %d", mat.ErrShape, len(x), op.Dim())
	}
	out := make([]float64, op.Dim())
	op.ApplyTranspose(out, x)
	return out, nil
}
