package mat

import (
	"errors"
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

// appendTwoPass is the Gram–Schmidt append as it stood before the sweep
// was fused: a Dot pass and a subtract pass per projection, then a
// separate norm pass. The fused Append must match it bit for bit.
func appendTwoPass(f *IncrementalQR, col []float64) error {
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

// TestIncrementalQRFusedSweepBitIdentical: the one-pass sweep produces the
// same Q, R and ErrSingular verdicts as the two-pass loop, bit for bit, on
// random columns, on near-collinear columns (some of which the rank test
// rejects), and on single-row factorizations; and a rejected column
// leaves the factored columns untouched.
func TestIncrementalQRFusedSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type input struct {
		name string
		m, k int
		col  func(j int, base []float64) []float64
	}
	random := func(m int) func(int, []float64) []float64 {
		return func(int, []float64) []float64 {
			c := make([]float64, m)
			for i := range c {
				c[i] = rng.NormFloat64()
			}
			return c
		}
	}
	nearCollinear := func(j int, base []float64) []float64 {
		// Every other column is the base plus a perturbation at or below
		// the rank test's threshold.
		c := make([]float64, len(base))
		scale := 1e-9
		if j%2 == 1 {
			scale = 1e-15
		}
		for i := range c {
			c[i] = base[i] + scale*rng.NormFloat64()
		}
		return c
	}
	inputs := []input{
		{"random", 96, 40, random(96)},
		{"near-collinear", 64, 24, nearCollinear},
		{"m=1", 1, 1, random(1)},
	}
	for _, in := range inputs {
		base := random(in.m)(0, nil)
		fused, err := NewIncrementalQR(in.m, in.k)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewIncrementalQR(in.m, in.k)
		rejected := 0
		// Offer more columns than capacity to also hit the capacity edge.
		for j := 0; j < 2*in.k && fused.Len() < in.k; j++ {
			c := in.col(j, base)
			q0 := append([]float64(nil), fused.q[:fused.k*fused.m]...)
			r0 := append([]float64(nil), fused.r[:fused.k*fused.maxCols]...)
			errF, errR := fused.Append(c), appendTwoPass(ref, c)
			if !errors.Is(errF, errR) || (errF == nil) != (errR == nil) {
				t.Fatalf("%s col %d: fused err %v, two-pass err %v", in.name, j, errF, errR)
			}
			if fused.k != ref.k || !sameBits(fused.q, ref.q) || !sameBits(fused.r, ref.r) {
				t.Fatalf("%s col %d: factors diverge from the two-pass loop", in.name, j)
			}
			if errF != nil {
				rejected++
				if !sameBits(fused.q[:fused.k*fused.m], q0) || !sameBits(fused.r[:fused.k*fused.maxCols], r0) {
					t.Fatalf("%s col %d: rejected column modified the factors", in.name, j)
				}
			}
		}
		if in.name == "near-collinear" && (rejected == 0 || fused.Len() < 2) {
			t.Fatalf("near-collinear input: %d rejected, %d accepted — want both outcomes", rejected, fused.Len())
		}
	}
}

// BenchmarkIncrementalQRAppend grows a 1024-row factorization to 64
// columns per iteration — a greedy decode's full support.
func BenchmarkIncrementalQRAppend(b *testing.B) {
	const m, k = 1024, 64
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
}
