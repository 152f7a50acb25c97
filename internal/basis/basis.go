// Package basis builds the orthonormal transform bases Φ used by the
// compressive-sensing core (paper Eq. 2: x = Φα). The paper calls for
// FFT/DCT bases by default, plus the ability to "use different basis and
// sensing matrix by exploiting prior available data of different regions" —
// covered here by Haar wavelets and a PCA basis learned from prior traces.
//
// Each constructor returns an explicit N×N matrix whose COLUMNS are the
// basis vectors, so a coefficient vector α maps to a signal via x = Φ·α and
// back via α = Φᵀ·x (orthonormality makes the transpose the inverse).
package basis

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Kind names a supported basis family.
type Kind string

// Supported basis families.
const (
	KindIdentity Kind = "identity"
	KindDCT      Kind = "dct"
	KindDFT      Kind = "dft"
	KindHaar     Kind = "haar"
	KindLearned  Kind = "learned"
)

// ErrBadSize reports an unsupported basis dimension.
var ErrBadSize = errors.New("basis: unsupported size")

// New returns the N×N basis of the given kind. Haar requires N to be a
// power of two; Learned cannot be built without traces (use Learn).
func New(kind Kind, n int) (*mat.Matrix, error) {
	switch kind {
	case KindIdentity:
		return mat.Identity(n), nil
	case KindDCT:
		return DCT(n), nil
	case KindDFT:
		return DFT(n), nil
	case KindHaar:
		return Haar(n)
	case KindLearned:
		return nil, errors.New("basis: learned basis needs prior traces, use Learn")
	default:
		return nil, fmt.Errorf("basis: unknown kind %q", kind)
	}
}

// DCT returns the orthonormal DCT-II basis: column k holds the k-th cosine
// mode, Φ[i,k] = s(k)·cos(π(2i+1)k / 2N) with s(0)=√(1/N), s(k>0)=√(2/N).
func DCT(n int) *mat.Matrix {
	m := mat.New(n, n)
	if n == 0 {
		return m
	}
	s0 := math.Sqrt(1 / float64(n))
	sk := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		scale := sk
		if k == 0 {
			scale = s0
		}
		for i := 0; i < n; i++ {
			m.Set(i, k, scale*math.Cos(math.Pi*float64(2*i+1)*float64(k)/(2*float64(n))))
		}
	}
	return m
}

// DFT returns a real orthonormal Fourier basis: the constant mode, paired
// cosine/sine modes for each positive frequency, and (for even N) the
// Nyquist alternating mode. This is the real embedding of the complex DFT
// that the paper's "FFT basis" refers to.
func DFT(n int) *mat.Matrix {
	m := mat.New(n, n)
	if n == 0 {
		return m
	}
	col := 0
	c0 := math.Sqrt(1 / float64(n))
	for i := 0; i < n; i++ {
		m.Set(i, col, c0)
	}
	col++
	amp := math.Sqrt(2 / float64(n))
	for f := 1; col < n && f <= n/2; f++ {
		if 2*f == n {
			// Nyquist mode: alternating ±1, norm 1/√n scaling.
			for i := 0; i < n; i++ {
				v := c0
				if i%2 == 1 {
					v = -c0
				}
				m.Set(i, col, v)
			}
			col++
			continue
		}
		for i := 0; i < n; i++ {
			m.Set(i, col, amp*math.Cos(2*math.Pi*float64(f*i)/float64(n)))
		}
		col++
		if col < n {
			for i := 0; i < n; i++ {
				m.Set(i, col, amp*math.Sin(2*math.Pi*float64(f*i)/float64(n)))
			}
			col++
		}
	}
	return m
}

// Haar returns the orthonormal Haar wavelet basis for n a power of two.
func Haar(n int) (*mat.Matrix, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("%w: Haar needs power-of-two size, got %d", ErrBadSize, n)
	}
	m := mat.New(n, n)
	// Column 0: scaling function.
	c := 1 / math.Sqrt(float64(n))
	for i := 0; i < n; i++ {
		m.Set(i, 0, c)
	}
	col := 1
	// Levels: wavelets with support n/2^level ... 1 pairs.
	for level := 1; 1<<level <= n; level++ {
		count := 1 << (level - 1) // wavelets at this level
		support := n / count      // samples covered by each wavelet
		amp := math.Sqrt(float64(count) / float64(n))
		for w := 0; w < count; w++ {
			start := w * support
			half := support / 2
			for i := 0; i < half; i++ {
				m.Set(start+i, col, amp)
			}
			for i := half; i < support; i++ {
				m.Set(start+i, col, -amp)
			}
			col++
		}
	}
	return m, nil
}

// Kron2D returns the separable 2-D basis Φ₂ = Φr ⊗ Φc for a field of
// h rows × w cols that has been column-stacked into a vector of length h·w
// (paper Eq. 1). Φr is the h×h row basis, Φc the w×w column basis. The
// resulting matrix is (h·w)×(h·w): coefficient (kc·h + kr) maps to the 2-D
// mode that is Φr's kr-th mode along rows and Φc's kc-th mode along columns.
func Kron2D(phiR, phiC *mat.Matrix) (*mat.Matrix, error) {
	if phiR.Rows != phiR.Cols || phiC.Rows != phiC.Cols {
		return nil, errors.New("basis: Kron2D needs square factor bases")
	}
	h, w := phiR.Rows, phiC.Rows
	n := h * w
	out := mat.New(n, n)
	for jc := 0; jc < w; jc++ { // column-basis mode
		for jr := 0; jr < h; jr++ { // row-basis mode
			colIdx := jc*h + jr
			for ic := 0; ic < w; ic++ {
				cv := phiC.At(ic, jc)
				if cv == 0 {
					continue
				}
				for ir := 0; ir < h; ir++ {
					out.Set(ic*h+ir, colIdx, cv*phiR.At(ir, jr))
				}
			}
		}
	}
	return out, nil
}

// Learn builds an orthonormal basis from T prior traces (the rows of the
// T×N matrix X): the eigenvectors of the sample covariance, sorted by
// decreasing eigenvalue (a PCA basis). This implements the paper's "exploit
// prior available data of different regions" benefit: fields drawn from the
// same process are maximally compressible in this basis.
//
// The eigendecomposition uses the cyclic Jacobi method, which is simple,
// stdlib-only, and robust for the symmetric covariance matrices that arise
// here.
func Learn(traces *mat.Matrix) (*mat.Matrix, []float64, error) {
	t, n := traces.Rows, traces.Cols
	if t == 0 || n == 0 {
		return nil, nil, errors.New("basis: no traces to learn from")
	}
	// Covariance C = (1/T) Σ (x_t - μ)(x_t - μ)ᵀ.
	mu := make([]float64, n)
	for i := 0; i < t; i++ {
		for j := 0; j < n; j++ {
			mu[j] += traces.At(i, j)
		}
	}
	for j := range mu {
		mu[j] /= float64(t)
	}
	cov := mat.New(n, n)
	for i := 0; i < t; i++ {
		for a := 0; a < n; a++ {
			da := traces.At(i, a) - mu[a]
			if da == 0 {
				continue
			}
			for b := 0; b < n; b++ {
				cov.Data[a*n+b] += da * (traces.At(i, b) - mu[b])
			}
		}
	}
	for i := range cov.Data {
		cov.Data[i] /= float64(t)
	}
	vecs, vals, err := JacobiEigen(cov, 100, 1e-11)
	if err != nil {
		return nil, nil, err
	}
	return vecs, vals, nil
}

// JacobiEigen computes the eigendecomposition of a symmetric matrix using
// the cyclic Jacobi rotation method. It returns the eigenvector matrix
// (columns are eigenvectors) and eigenvalues, both sorted by decreasing
// eigenvalue. maxSweeps bounds the work; tol is the off-diagonal Frobenius
// threshold for convergence.
func JacobiEigen(a *mat.Matrix, maxSweeps int, tol float64) (*mat.Matrix, []float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, errors.New("basis: JacobiEigen needs a square matrix")
	}
	w := a.Clone()
	v := mat.Identity(n)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.Data[i*n+j] * w.Data[i*n+j]
			}
		}
		if math.Sqrt(2*off) < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.Data[p*n+q]
				if math.Abs(apq) < tol/float64(n*n) {
					continue
				}
				app := w.Data[p*n+p]
				aqq := w.Data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply rotation to w = Jᵀ w J.
				for k := 0; k < n; k++ {
					wkp := w.Data[k*n+p]
					wkq := w.Data[k*n+q]
					w.Data[k*n+p] = c*wkp - s*wkq
					w.Data[k*n+q] = s*wkp + c*wkq
				}
				for k := 0; k < n; k++ {
					wpk := w.Data[p*n+k]
					wqk := w.Data[q*n+k]
					w.Data[p*n+k] = c*wpk - s*wqk
					w.Data[q*n+k] = s*wpk + c*wqk
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.Data[k*n+p]
					vkq := v.Data[k*n+q]
					v.Data[k*n+p] = c*vkp - s*vkq
					v.Data[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.Data[i*n+i]
	}
	// Sort columns by decreasing eigenvalue (insertion sort; n is small).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[order[j]] > vals[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := mat.New(n, n)
	for k, idx := range order {
		sortedVals[k] = vals[idx]
		for i := 0; i < n; i++ {
			sortedVecs.Data[i*n+k] = v.Data[i*n+idx]
		}
	}
	return sortedVecs, sortedVals, nil
}

// Synthesize returns the signal x = Φα.
func Synthesize(phi *mat.Matrix, alpha []float64) ([]float64, error) {
	return mat.MulVec(phi, alpha)
}

// CheckOrthonormal verifies ΦᵀΦ ≈ I within tol, returning the maximum
// deviation found. Useful in tests and when loading learned bases.
func CheckOrthonormal(phi *mat.Matrix, tol float64) (float64, bool) {
	p, err := mat.Mul(phi.T(), phi)
	if err != nil {
		return math.Inf(1), false
	}
	dev := 0.0
	n := phi.Cols
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(p.At(i, j) - want); d > dev {
				dev = d
			}
		}
	}
	return dev, dev <= tol
}

// SparsifyTopK returns a copy of alpha with all but the K
// largest-magnitude coefficients zeroed, plus the retained indices. This is
// the K-term approximation that defines the paper's approximation error ε_a.
func SparsifyTopK(alpha []float64, k int) ([]float64, []int) {
	if k < 0 {
		k = 0
	}
	if k > len(alpha) {
		k = len(alpha)
	}
	type pair struct {
		idx int
		mag float64
	}
	pairs := make([]pair, len(alpha))
	for i, v := range alpha {
		pairs[i] = pair{i, math.Abs(v)}
	}
	// Partial selection sort for the top K (K is small in practice).
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(pairs); j++ {
			if pairs[j].mag > pairs[best].mag {
				best = j
			}
		}
		pairs[i], pairs[best] = pairs[best], pairs[i]
	}
	out := make([]float64, len(alpha))
	idx := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out[pairs[i].idx] = alpha[pairs[i].idx]
		idx = append(idx, pairs[i].idx)
	}
	return out, idx
}
