package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecsAlmostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// maxAbs is the largest |v[i]| (0 for an empty vector).
func maxAbs(v []float64) float64 {
	mx := 0.0
	for _, x := range v {
		mx = math.Max(mx, math.Abs(x))
	}
	return mx
}

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("got %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1)=%v, want 6", m.At(2, 1))
	}
}

func TestNewFromRowsRagged(t *testing.T) {
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged rows")
	}
}

// mulVec returns a·x through MulVecInto.
func mulVec(t *testing.T, a *Matrix, x []float64) []float64 {
	t.Helper()
	out := make([]float64, a.Rows)
	if err := MulVecInto(out, a, x); err != nil {
		t.Fatal(err)
	}
	return out
}

// mulTVec returns aᵀ·x through MulTVecInto.
func mulTVec(t *testing.T, a *Matrix, x []float64) []float64 {
	t.Helper()
	out := make([]float64, a.Cols)
	if err := MulTVecInto(out, a, x); err != nil {
		t.Fatal(err)
	}
	return out
}

// transpose returns aᵀ as a new matrix.
func transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if got := mulVec(t, Identity(4), x); !vecsAlmostEqual(got, x, 0) {
		t.Fatalf("I*x = %v, want %v", got, x)
	}
}

func TestMulShapes(t *testing.T) {
	a := New(2, 3)
	if err := MulVecInto(make([]float64, 2), a, make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("(2x3)*vec(2): %v, want ErrShape", err)
	}
	if err := MulTVecInto(make([]float64, 2), a, make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("(2x3)ᵀ*vec(2)->vec(2): %v, want ErrShape", err)
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if got := mulVec(t, a, []float64{5, 7}); !vecsAlmostEqual(got, []float64{19, 43}, eps) {
		t.Fatalf("a*x = %v, want [19 43]", got)
	}
	if got := mulTVec(t, a, []float64{5, 7}); !vecsAlmostEqual(got, []float64{26, 38}, eps) {
		t.Fatalf("aᵀ*x = %v, want [26 38]", got)
	}
}

// TestMulVecAgainstMul checks MulVecInto against the product a·X, X the
// vector as a one-column matrix, accumulated row of X by row of X.
func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 5, 4)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.Rows)
	for k, xk := range x {
		for i := range want {
			want[i] += a.At(i, k) * xk
		}
	}
	if !vecsAlmostEqual(mulVec(t, a, x), want, eps) {
		t.Fatal("MulVecInto disagrees with the product")
	}
}

func TestMulTVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 5, 4)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if !vecsAlmostEqual(mulTVec(t, a, x), mulVec(t, transpose(a), x), eps) {
		t.Fatal("MulTVecInto disagrees with MulVecInto of the transpose")
	}
}

// leastSquares solves min ‖a·x − b‖₂ through IncrementalQR, the package's
// least-squares solver.
func leastSquares(t *testing.T, a *Matrix, b []float64) []float64 {
	t.Helper()
	f, err := NewIncrementalQR(a.Rows, a.Cols)
	if err != nil {
		t.Fatal(err)
	}
	appendCols(t, f, a)
	x, err := solve(f, b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined consistent system recovers the exact solution.
	rng := rand.New(rand.NewSource(8))
	a := randMatrix(rng, 10, 4)
	want := []float64{1, -2, 3, 0.5}
	got := leastSquares(t, a, mulVec(t, a, want))
	if !vecsAlmostEqual(got, want, 1e-8) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestLeastSquaresResidualOrthogonal(t *testing.T) {
	// The LS residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(9))
	a := randMatrix(rng, 12, 5)
	b := make([]float64, 12)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := leastSquares(t, a, b)
	r := SubVec(b, mulVec(t, a, x))
	if atr := mulTVec(t, a, r); maxAbs(atr) > 1e-8 {
		t.Fatalf("Aᵀr = %v, want ~0", atr)
	}
}

func TestConditionEstimate(t *testing.T) {
	condition := func(a *Matrix) float64 {
		f, err := NewIncrementalQR(a.Rows, a.Cols)
		if err != nil {
			t.Fatal(err)
		}
		appendCols(t, f, a)
		return f.ConditionEstimate()
	}
	d, _ := NewFromRows([][]float64{{10, 0, 0}, {0, 1, 0}, {0, 0, 0.1}})
	if c := condition(d); !almostEqual(c, 100, 1e-6) {
		t.Fatalf("cond=%v, want 100", c)
	}
	if c := condition(Identity(5)); !almostEqual(c, 1, 1e-9) {
		t.Fatalf("cond(I)=%v, want 1", c)
	}
}

func TestVectorNorms(t *testing.T) {
	v := []float64{3, -4, 0}
	if !almostEqual(Norm2(v), 5, eps) {
		t.Fatalf("Norm2=%v", Norm2(v))
	}
	if Norm0(v, 1e-12) != 2 {
		t.Fatalf("Norm0=%v", Norm0(v, 1e-12))
	}
}

func TestMeanVariance(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if !almostEqual(Mean(v), 2.5, eps) {
		t.Fatalf("Mean=%v", Mean(v))
	}
	if !almostEqual(Variance(v), 1.25, eps) {
		t.Fatalf("Variance=%v", Variance(v))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

// Property: (A·x)ᵀy == xᵀ(Aᵀ·y), so MulTVecInto applies the transpose of
// what MulVecInto applies.
func TestPropTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMatrix(rng, r, c)
		x, y := make([]float64, c), make([]float64, r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		return almostEqual(Dot(mulVec(t, a, x), y), Dot(x, mulTVec(t, a, y)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and Norm2² == Dot(v,v).
func TestPropDotNorm(t *testing.T) {
	f := func(raw []float64) bool {
		// Clamp to finite moderate values.
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			v = append(v, math.Mod(x, 1e6))
		}
		n := Norm2(v)
		return almostEqual(n*n, Dot(v, v), 1e-6*(1+n*n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Norm2 over AddVec.
func TestPropTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return Norm2(AddVec(a, b)) <= Norm2(a)+Norm2(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
