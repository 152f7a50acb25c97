package basis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestDCTOrthonormal(t *testing.T) {
	for _, n := range []int{1, 2, 8, 17, 64} {
		phi := DCT(n)
		if dev, ok := CheckOrthonormal(phi, 1e-9); !ok {
			t.Fatalf("DCT(%d) not orthonormal, dev=%v", n, dev)
		}
	}
}

func TestDFTOrthonormal(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 15, 16, 64} {
		phi := DFT(n)
		if dev, ok := CheckOrthonormal(phi, 1e-9); !ok {
			t.Fatalf("DFT(%d) not orthonormal, dev=%v", n, dev)
		}
	}
}

func TestHaarOrthonormal(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		phi, err := Haar(n)
		if err != nil {
			t.Fatal(err)
		}
		if dev, ok := CheckOrthonormal(phi, 1e-9); !ok {
			t.Fatalf("Haar(%d) not orthonormal, dev=%v", n, dev)
		}
	}
}

func TestHaarRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 6, 12} {
		if _, err := Haar(n); err == nil {
			t.Fatalf("Haar(%d) should fail", n)
		}
	}
}

func TestNewDispatch(t *testing.T) {
	for _, k := range []Kind{KindIdentity, KindDCT, KindDFT, KindHaar} {
		phi, err := New(k, 8)
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if phi.Rows != 8 || phi.Cols != 8 {
			t.Fatalf("New(%s) wrong shape", k)
		}
	}
	if _, err := New(KindLearned, 8); err == nil {
		t.Fatal("New(learned) should fail without traces")
	}
	if _, err := New(Kind("bogus"), 8); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestAnalyzeSynthesizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []Kind{KindDCT, KindDFT, KindHaar} {
		phi, err := New(kind, 32)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 32)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		alpha, err := mat.MulTVec(phi, x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Synthesize(phi, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if d := mat.Norm2(mat.SubVec(back, x)); d > 1e-9 {
			t.Fatalf("%s round trip error %v", kind, d)
		}
	}
}

func TestDCTCompressesSmoothSignal(t *testing.T) {
	// A smooth Gaussian bump should concentrate energy in few DCT modes.
	n := 64
	phi := DCT(n)
	x := make([]float64, n)
	for i := range x {
		d := (float64(i) - 32) / 10
		x[i] = math.Exp(-d * d)
	}
	alpha, _ := mat.MulTVec(phi, x)
	sparse, _ := SparsifyTopK(alpha, 12)
	approx, _ := Synthesize(phi, sparse)
	rel := mat.Norm2(mat.SubVec(approx, x)) / mat.Norm2(x)
	if rel > 0.01 {
		t.Fatalf("12-term DCT approximation error %v, want < 1%%", rel)
	}
}

func TestDFTCompressesSinusoid(t *testing.T) {
	// A pure sinusoid at an integer frequency is exactly one DFT mode.
	n := 64
	phi := DFT(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 2 * float64(i) / float64(n))
	}
	alpha, _ := mat.MulTVec(phi, x)
	sparse, _ := SparsifyTopK(alpha, 2)
	approx, _ := Synthesize(phi, sparse)
	rel := mat.Norm2(mat.SubVec(approx, x)) / mat.Norm2(x)
	if rel > 1e-9 {
		t.Fatalf("2-term DFT approximation error %v, want ~0", rel)
	}
}

func TestHaarCompressesPiecewiseConstant(t *testing.T) {
	n := 64
	phi, _ := Haar(n)
	x := make([]float64, n)
	for i := range x {
		if i < 16 {
			x[i] = 1
		} else if i < 48 {
			x[i] = -2
		} else {
			x[i] = 0.5
		}
	}
	alpha, _ := mat.MulTVec(phi, x)
	if nz := mat.Norm0(alpha, 1e-9); nz > 12 {
		t.Fatalf("piecewise-constant signal uses %d Haar coefficients, want few", nz)
	}
}

func TestKron2DOrthonormal(t *testing.T) {
	phi2, err := Kron2D(DCT(4), DCT(6))
	if err != nil {
		t.Fatal(err)
	}
	if phi2.Rows != 24 || phi2.Cols != 24 {
		t.Fatalf("Kron2D shape %dx%d", phi2.Rows, phi2.Cols)
	}
	if dev, ok := CheckOrthonormal(phi2, 1e-9); !ok {
		t.Fatalf("Kron2D not orthonormal, dev=%v", dev)
	}
}

func TestKron2DMatchesSeparableTransform(t *testing.T) {
	// Synthesizing a single (kr,kc) coefficient must equal the outer
	// product of the two 1-D modes, column-stacked.
	h, w := 4, 3
	pr, pc := DCT(h), DCT(w)
	phi2, err := Kron2D(pr, pc)
	if err != nil {
		t.Fatal(err)
	}
	kr, kc := 2, 1
	alpha := make([]float64, h*w)
	alpha[kc*h+kr] = 1
	x, _ := Synthesize(phi2, alpha)
	for ic := 0; ic < w; ic++ {
		for ir := 0; ir < h; ir++ {
			want := pr.At(ir, kr) * pc.At(ic, kc)
			if math.Abs(x[ic*h+ir]-want) > 1e-12 {
				t.Fatalf("mode mismatch at (%d,%d): got %v want %v", ir, ic, x[ic*h+ir], want)
			}
		}
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	a, _ := mat.NewFromRows([][]float64{{2, 1}, {1, 2}})
	vecs, vals, err := JacobiEigen(a, 50, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-1) > 1e-9 {
		t.Fatalf("eigenvalues %v, want [3 1]", vals)
	}
	// Check A v = λ v for each column.
	for k := 0; k < 2; k++ {
		col, _ := mat.SelectCols(vecs, []int{k})
		v := col.Data
		av, _ := mat.MulVec(a, v)
		for i := range v {
			if math.Abs(av[i]-vals[k]*v[i]) > 1e-9 {
				t.Fatalf("eigenpair %d violated", k)
			}
		}
	}
}

func TestLearnRecoversSubspace(t *testing.T) {
	// Traces lie (noisily) in a 2-D subspace; the top-2 learned basis
	// vectors must capture almost all the energy.
	rng := rand.New(rand.NewSource(7))
	n, tr := 16, 200
	u1 := make([]float64, n)
	u2 := make([]float64, n)
	for i := 0; i < n; i++ {
		u1[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
		u2[i] = math.Cos(2 * math.Pi * 3 * float64(i) / float64(n))
	}
	traces := mat.New(tr, n)
	for t2 := 0; t2 < tr; t2++ {
		a, b := rng.NormFloat64()*5, rng.NormFloat64()*3
		for i := 0; i < n; i++ {
			traces.Set(t2, i, a*u1[i]+b*u2[i]+0.01*rng.NormFloat64())
		}
	}
	vecs, vals, err := Learn(traces)
	if err != nil {
		t.Fatal(err)
	}
	if dev, ok := CheckOrthonormal(vecs, 1e-8); !ok {
		t.Fatalf("learned basis not orthonormal, dev=%v", dev)
	}
	total, top2 := 0.0, vals[0]+vals[1]
	for _, v := range vals {
		total += v
	}
	if top2/total < 0.99 {
		t.Fatalf("top-2 eigenvalues capture %.3f of energy, want > 0.99", top2/total)
	}
}

func TestLearnEmpty(t *testing.T) {
	if _, _, err := Learn(mat.New(0, 0)); err == nil {
		t.Fatal("want error for empty traces")
	}
}

func TestSparsifyTopK(t *testing.T) {
	alpha := []float64{0.1, -5, 0.2, 3, 0}
	sparse, idx := SparsifyTopK(alpha, 2)
	if len(idx) != 2 {
		t.Fatalf("idx=%v", idx)
	}
	if sparse[1] != -5 || sparse[3] != 3 {
		t.Fatalf("sparse=%v", sparse)
	}
	if sparse[0] != 0 || sparse[2] != 0 || sparse[4] != 0 {
		t.Fatalf("sparse=%v keeps extra entries", sparse)
	}
	// Degenerate K values.
	s0, i0 := SparsifyTopK(alpha, 0)
	if mat.Norm0(s0, 0) != 0 || len(i0) != 0 {
		t.Fatal("K=0 should zero everything")
	}
	sAll, _ := SparsifyTopK(alpha, 99)
	for i := range alpha {
		if sAll[i] != alpha[i] {
			t.Fatal("K>len should keep everything")
		}
	}
	sNeg, _ := SparsifyTopK(alpha, -3)
	if mat.Norm0(sNeg, 0) != 0 {
		t.Fatal("negative K should zero everything")
	}
}

// Property: Parseval — for every orthonormal basis and random signal,
// ||x||₂ == ||Φᵀx||₂.
func TestPropParseval(t *testing.T) {
	phis := []*mat.Matrix{DCT(16), DFT(16)}
	h, _ := Haar(16)
	phis = append(phis, h)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 16)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for _, phi := range phis {
			alpha, err := mat.MulTVec(phi, x)
			if err != nil {
				return false
			}
			if math.Abs(mat.Norm2(alpha)-mat.Norm2(x)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SparsifyTopK(α, k) has at most k nonzeros and never increases
// the distance to α when k grows.
func TestPropSparsifyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		alpha := make([]float64, n)
		for i := range alpha {
			alpha[i] = rng.NormFloat64()
		}
		prev := math.Inf(1)
		for k := 0; k <= n; k++ {
			s, idx := SparsifyTopK(alpha, k)
			if len(idx) != k || mat.Norm0(s, 0) > k {
				return false
			}
			d := mat.Norm2(mat.SubVec(alpha, s))
			if d > prev+1e-12 {
				return false
			}
			prev = d
		}
		return prev < 1e-12 // k=n must be exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDCT256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DCT(256)
	}
}

func BenchmarkLearn64x32(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	traces := mat.New(64, 32)
	for i := range traces.Data {
		traces.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Learn(traces); err != nil {
			b.Fatal(err)
		}
	}
}
