package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func matsEqual(t *testing.T, name string, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("%s: Data[%d] = %g, want %g", name, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 7, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := MulVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 7)
	if err := MulVecInto(got, a, x); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("out[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMulTVecIntoMatchesMulTVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 7, 5)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := MulTVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 5)
	// Pre-dirty the output: the kernel must fully overwrite it.
	for i := range got {
		got[i] = 99
	}
	if err := MulTVecInto(got, a, x); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("out[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSelectIntoMatchAllocatingVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 6, 8)
	cols := []int{7, 0, 3}

	wantC, err := SelectCols(a, cols)
	if err != nil {
		t.Fatal(err)
	}
	gotC := New(6, len(cols))
	if err := SelectColsInto(gotC, a, cols); err != nil {
		t.Fatal(err)
	}
	matsEqual(t, "SelectColsInto", gotC, wantC, 0)

	if err := SelectColsInto(gotC, a, []int{0, 1, 8}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}

func TestInPlaceShapeErrors(t *testing.T) {
	a := New(3, 2)
	if err := MulVecInto(make([]float64, 3), a, make([]float64, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("MulVecInto bad x: %v, want ErrShape", err)
	}
	if err := MulVecInto(make([]float64, 2), a, make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("MulVecInto bad out: %v, want ErrShape", err)
	}
	if err := MulTVecInto(make([]float64, 2), a, make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("MulTVecInto bad x: %v, want ErrShape", err)
	}
	if err := SelectColsInto(New(3, 2), a, []int{0}); !errors.Is(err, ErrShape) {
		t.Fatalf("SelectColsInto bad out: %v, want ErrShape", err)
	}
}

func TestInPlaceAliasDetection(t *testing.T) {
	a := New(3, 3)
	v := make([]float64, 3)
	if err := MulVecInto(v, a, v); !errors.Is(err, ErrAlias) {
		t.Fatalf("MulVecInto aliased: %v, want ErrAlias", err)
	}
	if err := MulTVecInto(v, a, v); !errors.Is(err, ErrAlias) {
		t.Fatalf("MulTVecInto aliased: %v, want ErrAlias", err)
	}
	shared := &Matrix{Rows: 3, Cols: 3, Data: a.Data}
	if err := SelectColsInto(shared, a, []int{0, 1, 2}); !errors.Is(err, ErrAlias) {
		t.Fatalf("SelectColsInto aliased: %v, want ErrAlias", err)
	}
}
