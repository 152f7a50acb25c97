package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randTall(rng *rand.Rand, m, n int) *Matrix {
	a := New(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

func appendCols(t *testing.T, f *IncrementalQR, a *Matrix) {
	t.Helper()
	col := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			col[i] = a.At(i, j)
		}
		if err := f.Append(col); err != nil {
			t.Fatalf("Append col %d: %v", j, err)
		}
	}
}

func TestIncrementalQRMatchesLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{6, 3}, {12, 5}, {20, 20}} {
		m, n := dims[0], dims[1]
		a := randTall(rng, m, n)
		y := make([]float64, m)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		f, err := NewIncrementalQR(m, n)
		if err != nil {
			t.Fatal(err)
		}
		appendCols(t, f, a)
		if f.Len() != n || f.m != m {
			t.Fatalf("Len/Rows = %d/%d, want %d/%d", f.Len(), f.m, n, m)
		}
		x, err := f.Solve(y)
		if err != nil {
			t.Fatal(err)
		}
		// Least-squares optimality: the residual must be orthogonal to
		// every column of A.
		pred, err := MulVec(a, x)
		if err != nil {
			t.Fatal(err)
		}
		r := SubVec(y, pred)
		atr, err := MulTVec(a, r)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range atr {
			if math.Abs(v) > 1e-9 {
				t.Fatalf("%dx%d: Aᵀr[%d] = %g, want ~0", m, n, j, v)
			}
		}
	}
}

func TestIncrementalQRExactOnConsistentSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randTall(rng, 10, 4)
	want := []float64{2, -1, 0.5, 3}
	y, err := MulVec(a, want)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewIncrementalQR(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	appendCols(t, f, a)
	got, err := f.Solve(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestIncrementalQRRejectsDependentColumn(t *testing.T) {
	f, err := NewIncrementalQR(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	c1 := []float64{1, 2, 3, 4}
	if err := f.Append(c1); err != nil {
		t.Fatal(err)
	}
	// A scaled copy is linearly dependent: the append must fail without
	// committing.
	c2 := []float64{2, 4, 6, 8}
	if err := f.Append(c2); !errors.Is(err, ErrSingular) {
		t.Fatalf("dependent append: err = %v, want ErrSingular", err)
	}
	if f.Len() != 1 {
		t.Fatalf("Len after rejected append = %d, want 1", f.Len())
	}
	// The factorization must still accept an independent column afterwards.
	c3 := []float64{0, 1, 0, 0}
	if err := f.Append(c3); err != nil {
		t.Fatalf("independent append after rejection: %v", err)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
}

func TestIncrementalQRDeflateLatest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTall(rng, 9, 4)
	y := make([]float64, 9)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	f, err := NewIncrementalQR(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Maintain resid = y − QQᵀy by deflating after every append (the OMP
	// residual recurrence) and compare with the explicit projection.
	resid := CloneVec(y)
	col := make([]float64, 9)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < 9; i++ {
			col[i] = a.At(i, j)
		}
		if err := f.Append(col); err != nil {
			t.Fatal(err)
		}
		if _, err := f.DeflateLatest(resid); err != nil {
			t.Fatal(err)
		}
	}
	x, err := f.Solve(y)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := MulVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resid {
		if want := y[i] - pred[i]; math.Abs(resid[i]-want) > 1e-9 {
			t.Fatalf("resid[%d] = %g, want %g", i, resid[i], want)
		}
	}
}

func TestIncrementalQRShapeErrors(t *testing.T) {
	if _, err := NewIncrementalQR(3, 4); !errors.Is(err, ErrShape) {
		t.Fatalf("maxCols > m: err = %v, want ErrShape", err)
	}
	if _, err := NewIncrementalQR(0, 0); !errors.Is(err, ErrShape) {
		t.Fatalf("zero dims: err = %v, want ErrShape", err)
	}
	f, err := NewIncrementalQR(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("short column: err = %v, want ErrShape", err)
	}
	if err := f.Append([]float64{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]float64{0, 1, 0, 0}); !errors.Is(err, ErrShape) {
		t.Fatalf("append past capacity: err = %v, want ErrShape", err)
	}
	if _, err := f.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: err = %v, want ErrShape", err)
	}
	if err := f.SolveInto(make([]float64, 3), make([]float64, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("wrong solution length: err = %v, want ErrShape", err)
	}
	if _, err := f.DeflateLatest([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short deflate vector: err = %v, want ErrShape", err)
	}
}

// appendMGS2 is the reference append: modified Gram–Schmidt, always two
// passes, a Dot and a subtract per projection, then the same rank test.
func appendMGS2(f *IncrementalQR, col []float64) error {
	v := f.q[f.k*f.m : (f.k+1)*f.m]
	copy(v, col)
	norm0 := Norm2(col)
	rk := f.r[f.k*f.maxCols:]
	for j := 0; j < f.k; j++ {
		rk[j] = 0
	}
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < f.k; j++ {
			qj := f.q[j*f.m : (j+1)*f.m]
			d := Dot(qj, v)
			rk[j] += d
			for i, qv := range qj {
				v[i] -= d * qv
			}
		}
	}
	nv := Norm2(v)
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

// sameBits reports whether two slices hold identical float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// upperR copies R's upper triangle, column by column: the factor itself
// (the strictly lower triangle is Append's scratch).
func upperR(f *IncrementalQR) []float64 {
	var u []float64
	for j := 0; j < f.k; j++ {
		u = append(u, f.r[j*f.maxCols:j*f.maxCols+j+1]...)
	}
	return u
}

// haarColumns returns the orthonormal Haar basis of length n (a power of
// two) sampled at the given rows: column 0 is the scaling function, then
// the wavelets coarse to fine.
func haarColumns(n int, rows []int) [][]float64 {
	cols := [][]float64{}
	atom := func(f func(t int) float64) {
		c := make([]float64, len(rows))
		for i, t := range rows {
			c[i] = f(t)
		}
		cols = append(cols, c)
	}
	atom(func(int) float64 { return 1 / math.Sqrt(float64(n)) })
	for width := n; width >= 2; width /= 2 {
		amp := 1 / math.Sqrt(float64(width))
		for start := 0; start < n; start += width {
			atom(func(t int) float64 {
				switch {
				case t < start || t >= start+width:
					return 0
				case t < start+width/2:
					return amp
				default:
					return -amp
				}
			})
		}
	}
	return cols
}

// TestIncrementalQRMatchesMGS2 holds the blocked, selectively
// re-orthogonalized append to the properties of the always-two-pass MGS it
// replaced, on random columns, on near-collinear columns (some of which
// the rank test rejects), on single-row factorizations and on Haar columns
// sampled at 16 of 64 rows (where first passes cancel past 1/√2, so the
// second pass runs): Q orthonormal and A_J = Q·R to 1e-13, the same
// ErrSingular verdicts, least-squares coefficients within coefTol relative,
// and a rejected column leaves the factors untouched.
func TestIncrementalQRMatchesMGS2(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	randCol := func(m int) []float64 {
		c := make([]float64, m)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		return c
	}
	type input struct {
		name    string
		m, k    int
		cols    [][]float64
		coefTol float64
	}
	var nearCollinear [][]float64
	base := randCol(64)
	for j := 0; j < 48; j++ {
		// Every other column is the base plus a perturbation at or below
		// the rank test's threshold.
		scale := 1e-9
		if j%2 == 1 {
			scale = 1e-15
		}
		c := randCol(64)
		for i := range c {
			c[i] = base[i] + scale*c[i]
		}
		nearCollinear = append(nearCollinear, c)
	}
	var random [][]float64
	for j := 0; j < 80; j++ {
		random = append(random, randCol(96))
	}
	haar := haarColumns(64, rng.Perm(64)[:16])
	rng.Shuffle(len(haar), func(i, j int) { haar[i], haar[j] = haar[j], haar[i] })
	inputs := []input{
		{"random", 96, 40, random, 1e-10},
		// κ(A_J) ≈ 1e10 here: any two backward-stable solvers agree to
		// about κ·ε in x, not to 1e-10.
		{"near-collinear", 64, 24, nearCollinear, 1e-6},
		{"m=1", 1, 1, [][]float64{randCol(1), randCol(1)}, 1e-10},
		{"haar-16/64", 16, 16, haar, 1e-10},
	}
	for _, in := range inputs {
		got, err := NewIncrementalQR(in.m, in.k)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewIncrementalQR(in.m, in.k)
		var accepted [][]float64
		rejected, reorth := 0, 0
		// Offer more columns than capacity; stop once it is full.
		for j, c := range in.cols {
			if got.Len() == in.k {
				break
			}
			q0 := append([]float64(nil), got.q[:got.k*got.m]...)
			r0 := upperR(got)
			k0 := got.k
			h := make([]float64, got.k)
			got.mulQT(h, c)
			proj := CloneVec(c)
			for jj, d := range h {
				for i := range proj {
					proj[i] -= d * got.q[jj*got.m+i]
				}
			}
			firstCancelled := Norm2(proj) < Norm2(c)/math.Sqrt2
			errG, errR := got.Append(c), appendMGS2(ref, c)
			if !errors.Is(errG, errR) || (errG == nil) != (errR == nil) {
				t.Fatalf("%s col %d: err %v, MGS2 err %v", in.name, j, errG, errR)
			}
			if errG != nil {
				rejected++
				if got.k != k0 || !sameBits(got.q[:got.k*got.m], q0) || !sameBits(upperR(got), r0) {
					t.Fatalf("%s col %d: rejected column modified the factors", in.name, j)
				}
				continue
			}
			accepted = append(accepted, c)
			if firstCancelled && k0 > 0 {
				reorth++
			}
		}
		k := got.Len()
		// ‖QᵀQ − I‖_max and ‖A_J − QR‖_max.
		amax, orth, fact := 0.0, 0.0, 0.0
		for j := 0; j < k; j++ {
			qj := got.q[j*got.m : (j+1)*got.m]
			for l := 0; l < k; l++ {
				want := 0.0
				if l == j {
					want = 1
				}
				orth = math.Max(orth, math.Abs(Dot(got.q[l*got.m:(l+1)*got.m], qj)-want))
			}
			for i := 0; i < got.m; i++ {
				qr := 0.0
				for l := 0; l <= j; l++ {
					qr += got.q[l*got.m+i] * got.r[j*got.maxCols+l]
				}
				amax = math.Max(amax, math.Abs(accepted[j][i]))
				fact = math.Max(fact, math.Abs(accepted[j][i]-qr))
			}
		}
		if orth > 1e-13 {
			t.Errorf("%s: ‖QᵀQ − I‖_max = %g", in.name, orth)
		}
		if fact > 1e-13*amax {
			t.Errorf("%s: ‖A_J − QR‖_max = %g, ‖A_J‖_max = %g", in.name, fact, amax)
		}
		y := randCol(in.m)
		x, err := got.Solve(y)
		if err != nil {
			t.Fatal(err)
		}
		xr, err := ref.Solve(y)
		if err != nil {
			t.Fatal(err)
		}
		if d, xmax := maxAbs(SubVec(x, xr)), maxAbs(xr); d > in.coefTol*xmax {
			t.Errorf("%s: coefficients differ from MGS2 by %g (max |x| %g)", in.name, d, xmax)
		}
		if in.name == "near-collinear" && (rejected == 0 || k < 2) {
			t.Errorf("near-collinear input: %d rejected, %d accepted — want both outcomes", rejected, k)
		}
		if in.name == "haar-16/64" && reorth == 0 {
			t.Errorf("haar input: no accepted column needed the second pass")
		}
	}
}

// BenchmarkIncrementalQRAppend grows a factorization to its full support
// per iteration: 1024×64, and 400×32 (a campaign-decode zone at the CHS
// iteration cap).
func BenchmarkIncrementalQRAppend(b *testing.B) {
	for _, dims := range [][2]int{{1024, 64}, {400, 32}} {
		m, k := dims[0], dims[1]
		b.Run(fmt.Sprintf("%dx%d", m, k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cols := make([][]float64, k)
			for j := range cols {
				cols[j] = make([]float64, m)
				for i := range cols[j] {
					cols[j][i] = rng.NormFloat64()
				}
			}
			f, err := NewIncrementalQR(m, k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				f.k = 0
				for _, c := range cols {
					if err := f.Append(c); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
