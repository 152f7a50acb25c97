package mat

import "fmt"

// In-place kernel variants. The decode fast path calls these once per
// iteration with hoisted buffers, so none of them may allocate; each checks
// shape and (cheaply detectable) aliasing instead of silently corrupting an
// operand mid-scan.

func sameSlice(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// MulVecInto computes out = a*x without allocating. out must not alias x.
func MulVecInto(out []float64, a *Matrix, x []float64) error {
	if a.Cols != len(x) || a.Rows != len(out) {
		return fmt.Errorf("%w: (%dx%d)*vec(%d)->vec(%d)", ErrShape, a.Rows, a.Cols, len(x), len(out))
	}
	if sameSlice(out, x) {
		return ErrAlias
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return nil
}

// MulTVecInto computes out = aᵀ*x without allocating or materializing the
// transpose: it scans a row-major, accumulating x[i]·row(i) into out, which
// is the cache-friendly form of the correlation step Φ̃ᵀr used by every
// greedy decoder. out must not alias x.
func MulTVecInto(out []float64, a *Matrix, x []float64) error {
	if a.Rows != len(x) || a.Cols != len(out) {
		return fmt.Errorf("%w: (%dx%d)ᵀ*vec(%d)->vec(%d)", ErrShape, a.Rows, a.Cols, len(x), len(out))
	}
	if sameSlice(out, x) {
		return ErrAlias
	}
	for j := range out {
		out[j] = 0
	}
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
	return nil
}
