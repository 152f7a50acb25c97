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

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 7, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 7)
	for i := range want {
		for j, xj := range x {
			want[i] += a.At(i, j) * xj
		}
	}
	got := make([]float64, 7)
	// Pre-dirty the output: the kernel must fully overwrite it.
	for i := range got {
		got[i] = 99
	}
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
	want := make([]float64, 5)
	for j := range want {
		for i, xi := range x {
			want[j] += a.At(i, j) * xi
		}
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
}
