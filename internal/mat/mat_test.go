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

// maxAbsDiff is the largest |a[i,j] − b[i,j]| of two equal-shape matrices.
func maxAbsDiff(a, b *Matrix) float64 {
	return maxAbs(SubVec(a.Data, b.Data))
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

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 4, 4)
	p, err := Mul(Identity(4), a)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsAlmostEqual(p.Data, a.Data, eps) {
		t.Fatal("I*a != a")
	}
}

func TestMulShapes(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("want shape error")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	p, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	if !vecsAlmostEqual(p.Data, want, eps) {
		t.Fatalf("got %v want %v", p.Data, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 3, 5)
	tt := a.T().T()
	if !vecsAlmostEqual(tt.Data, a.Data, 0) {
		t.Fatal("(aᵀ)ᵀ != a")
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 5, 4)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got, err := MulVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	xm := New(4, 1)
	copy(xm.Data, x)
	want, _ := Mul(a, xm)
	if !vecsAlmostEqual(got, want.Data, eps) {
		t.Fatal("MulVec disagrees with Mul")
	}
}

func TestMulTVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 5, 4)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got, err := MulTVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MulVec(a.T(), x)
	if !vecsAlmostEqual(got, want, eps) {
		t.Fatal("MulTVec disagrees with MulVec of transpose")
	}
}

func TestQROrthonormalAndReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMatrix(rng, 8, 5)
	qr, err := QRDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	// QᵀQ = I.
	qtq, _ := Mul(qr.Q.T(), qr.Q)
	if d := maxAbsDiff(qtq, Identity(5)); d > 1e-9 {
		t.Fatalf("QᵀQ deviates from I by %v", d)
	}
	// Q*R = a.
	recon, _ := Mul(qr.Q, qr.R)
	if d2 := maxAbsDiff(recon, a); d2 > 1e-9 {
		t.Fatalf("QR deviates from a by %v", d2)
	}
	// R upper triangular.
	for i := 0; i < qr.R.Rows; i++ {
		for j := 0; j < i; j++ {
			if qr.R.At(i, j) != 0 {
				t.Fatalf("R(%d,%d)=%v below diagonal", i, j, qr.R.At(i, j))
			}
		}
	}
}

func TestQRWide(t *testing.T) {
	if _, err := QRDecompose(New(2, 5)); err == nil {
		t.Fatal("want error for wide matrix")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined consistent system recovers the exact solution.
	rng := rand.New(rand.NewSource(8))
	a := randMatrix(rng, 10, 4)
	want := []float64{1, -2, 3, 0.5}
	b, _ := MulVec(a, want)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
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
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := MulVec(a, x)
	r := SubVec(b, ax)
	atr, _ := MulTVec(a, r)
	if maxAbs(atr) > 1e-8 {
		t.Fatalf("Aᵀr = %v, want ~0", atr)
	}
}

func TestWeightedLeastSquaresMatchesOLSForIdentityCov(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMatrix(rng, 9, 3)
	b := make([]float64, 9)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ols, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, 9)
	for i := range ones {
		ones[i] = 1
	}
	gls, err := WeightedLeastSquares(a, b, ones)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsAlmostEqual(ols, gls, 1e-8) {
		t.Fatalf("GLS with V=I %v != OLS %v", gls, ols)
	}
}

func TestWeightedLeastSquaresDownweightsNoisyRows(t *testing.T) {
	// Two duplicated measurement blocks; one block is corrupted. With a
	// covariance that marks the corrupted block as high variance, GLS must
	// land closer to the truth than OLS.
	a := New(8, 2)
	for i := 0; i < 8; i++ {
		a.Set(i, 0, 1)
		a.Set(i, 1, float64(i%4))
	}
	truth := []float64{2, 0.5}
	b, _ := MulVec(a, truth)
	for i := 4; i < 8; i++ {
		b[i] += 3 // gross corruption on second block
	}
	sigma := make([]float64, 8)
	for i := range sigma {
		if i < 4 {
			sigma[i] = 0.1
		} else {
			sigma[i] = 10
		}
	}
	gls, err := WeightedLeastSquares(a, b, sigma)
	if err != nil {
		t.Fatal(err)
	}
	ols, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	eg := Norm2(SubVec(gls, truth))
	eo := Norm2(SubVec(ols, truth))
	if eg >= eo {
		t.Fatalf("GLS error %v not better than OLS error %v", eg, eo)
	}
	if eg > 0.05 {
		t.Fatalf("GLS error %v too large", eg)
	}
}

// A zero sigma claims an exact row: its weight would be infinite, so the
// system is reported singular instead of solved with Inf entries.
func TestWeightedLeastSquaresRejectsZeroSigma(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	for _, sigma := range [][]float64{{1, 0, 1}, {1, 1, -0.0}} {
		if _, err := WeightedLeastSquares(a, []float64{1, 2, 3}, sigma); !errors.Is(err, ErrSingular) {
			t.Fatalf("sigma %v: err %v, want ErrSingular", sigma, err)
		}
	}
	if _, err := WeightedLeastSquares(a, []float64{1, 2, 3}, []float64{1, 1}); !errors.Is(err, ErrShape) {
		t.Fatalf("2 sigmas for 3 rows: err %v, want ErrShape", err)
	}
}

func TestSelectRowsCols(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	r, err := SelectRows(a, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !vecsAlmostEqual(r.Data, []float64{7, 8, 9, 1, 2, 3}, 0) {
		t.Fatalf("SelectRows got %v", r.Data)
	}
	c, err := SelectCols(a, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecsAlmostEqual(c.Data, []float64{2, 5, 8}, 0) {
		t.Fatalf("SelectCols got %v", c.Data)
	}
	if _, err := SelectRows(a, []int{3}); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := SelectCols(a, []int{-1}); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestConditionEstimate(t *testing.T) {
	d, _ := NewFromRows([][]float64{{10, 0, 0}, {0, 1, 0}, {0, 0, 0.1}})
	c, err := ConditionEstimate(d)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 100, 1e-6) {
		t.Fatalf("cond=%v, want 100", c)
	}
	id := Identity(5)
	c, _ = ConditionEstimate(id)
	if !almostEqual(c, 1, 1e-9) {
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

// Property: (A*B)ᵀ == Bᵀ*Aᵀ for random small matrices.
func TestPropTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := randMatrix(rng, r, k), randMatrix(rng, k, c)
		ab, _ := Mul(a, b)
		left := ab.T()
		right, _ := Mul(b.T(), a.T())
		return vecsAlmostEqual(left.Data, right.Data, 1e-9)
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

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, 64, 64)
	y := randMatrix(rng, 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQR128x32(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 128, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := QRDecompose(a); err != nil {
			b.Fatal(err)
		}
	}
}
