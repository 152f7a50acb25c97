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
