package basis

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
)

// Dense oracles the basis tests compare the operators against: each
// family's explicit matrix, the Kronecker product of two factor bases, the
// products of a matrix with a vector, and the orthonormality deviation.

// denseBasis returns the n×n matrix of the given family, its columns the
// basis vectors.
func denseBasis(tb testing.TB, kind Kind, n int) *mat.Matrix {
	tb.Helper()
	switch kind {
	case KindIdentity:
		return mat.Identity(n)
	case KindDCT:
		return dct(n)
	case KindDFT:
		return dft(n)
	case KindHaar:
		m, err := haar(n)
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	tb.Fatalf("no dense oracle for kind %q", kind)
	return nil
}

// haar returns the orthonormal Haar wavelet basis for n a power of two.
func haar(n int) (*mat.Matrix, error) {
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

// kron2D returns the separable 2-D basis Φ₂ = Φr ⊗ Φc for a field of
// h rows × w cols that has been column-stacked into a vector of length h·w
// (paper Eq. 1). Φr is the h×h row basis, Φc the w×w column basis. The
// resulting matrix is (h·w)×(h·w): coefficient (kc·h + kr) maps to the 2-D
// mode that is Φr's kr-th mode along rows and Φc's kc-th mode along columns.
// Both factors must be square.
func kron2D(phiR, phiC *mat.Matrix) *mat.Matrix {
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
	return out
}

// mulVec returns a·x.
func mulVec(a *mat.Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows)
	if err := mat.MulVecInto(out, a, x); err != nil {
		panic(err)
	}
	return out
}

// mulTVec returns aᵀ·x.
func mulTVec(a *mat.Matrix, x []float64) []float64 {
	out := make([]float64, a.Cols)
	if err := mat.MulTVecInto(out, a, x); err != nil {
		panic(err)
	}
	return out
}

// checkOrthonormal verifies ΦᵀΦ ≈ I within tol, returning the maximum
// deviation found.
func checkOrthonormal(phi *mat.Matrix, tol float64) (float64, bool) {
	dev := 0.0
	for i := 0; i < phi.Cols; i++ {
		for j := 0; j < phi.Cols; j++ {
			s := 0.0
			for k := 0; k < phi.Rows; k++ {
				s += phi.At(k, i) * phi.At(k, j)
			}
			if i == j {
				s--
			}
			dev = math.Max(dev, math.Abs(s))
		}
	}
	return dev, dev <= tol
}
