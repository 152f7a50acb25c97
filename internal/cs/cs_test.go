package cs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/basis"
	"repro/internal/mat"
)

// sparseSignal builds an exactly k-sparse signal in the given basis and
// returns the signal, coefficients, and support.
func sparseSignal(rng *rand.Rand, phi *mat.Matrix, k int) ([]float64, []float64, []int) {
	n := phi.Cols
	alpha := make([]float64, n)
	support := rng.Perm(n)[:k]
	for _, j := range support {
		v := 1 + rng.Float64()*2
		if rng.Intn(2) == 0 {
			v = -v
		}
		alpha[j] = v
	}
	x := make([]float64, phi.Rows)
	if err := mat.MulVecInto(x, phi, alpha); err != nil {
		panic(err)
	}
	return x, alpha, support
}

// denseDCT materializes the n-point DCT basis: column j is the cached
// operator's synthesis of e_j.
func denseDCT(n int) *mat.Matrix {
	op, err := basis.CachedOperator(basis.KindDCT, n)
	if err != nil {
		panic(err)
	}
	phi := mat.New(n, n)
	e, col := make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		op.Apply(col, e)
		e[j] = 0
		for i, v := range col {
			phi.Set(i, j, v)
		}
	}
	return phi
}

// denseOp wraps a dense basis matrix for the decoders, which take a
// basis.Operator.
func denseOp(tb testing.TB, phi *mat.Matrix) basis.Operator {
	tb.Helper()
	op, err := basis.FromMatrix(phi)
	if err != nil {
		tb.Fatal(err)
	}
	return op
}

func TestOMPExactRecoveryNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	phi := denseDCT(64)
	op := denseOp(t, phi)
	x, alpha, _ := sparseSignal(rng, phi, 4)
	locs, err := RandomLocations(rng, 64, 24)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Measure(x, locs, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OMPOp(op, locs, y, 4, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-18 {
		t.Fatalf("NMSE %v, want ~0", nm)
	}
	if d := mat.Norm2(mat.SubVec(alpha, res.Alpha)); d > 1e-8 {
		t.Fatalf("coefficient error %v", d)
	}
	if len(res.Support) != 4 {
		t.Fatalf("support size %d", len(res.Support))
	}
}

func TestOMPNoisyRecoveryDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	phi := denseDCT(128)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 5)
	locs, _ := RandomLocations(rng, 128, 50)
	y, _ := Measure(x, locs, rng, []float64{0.02})
	res, err := OMPOp(op, locs, y, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 0.02 {
		t.Fatalf("noisy NMSE %v too large", nm)
	}
}

func TestOMPErrorsAndEdgeCases(t *testing.T) {
	phi := denseDCT(16)
	op := denseOp(t, phi)
	if _, err := OMPOp(op, nil, nil, 3, 0); err != ErrNoMeasurements {
		t.Fatalf("err=%v, want ErrNoMeasurements", err)
	}
	if _, err := OMPOp(op, []int{1, 2}, []float64{1}, 3, 0); err == nil {
		t.Fatal("want measurement length error")
	}
	if _, err := OMPOp(op, []int{1, 2}, []float64{1, 2}, 0, 0); err == nil {
		t.Fatal("want sparsity error")
	}
	// Zero measurements → zero reconstruction.
	res, err := OMPOp(op, []int{1, 2, 3}, []float64{0, 0, 0}, 2, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Norm2(res.Xhat) != 0 {
		t.Fatalf("zero input should give zero reconstruction, got %v", res.Xhat)
	}
}

func TestOMPSupportCappedByMeasurements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	phi := denseDCT(32)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 8)
	locs, _ := RandomLocations(rng, 32, 6)
	y, _ := Measure(x, locs, rng, nil)
	res, err := OMPOp(op, locs, y, 20, 0) // ask for more atoms than measurements
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) > 6 {
		t.Fatalf("support %d exceeds measurement count", len(res.Support))
	}
}

func TestBasisPursuitExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	phi := denseDCT(32)
	x, alpha, _ := sparseSignal(rng, phi, 3)
	locs, _ := RandomLocations(rng, 32, 14)
	y, _ := Measure(x, locs, rng, nil)
	res, err := BPDN(denseOp(t, phi), locs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.Norm2(mat.SubVec(alpha, res.Alpha)); d > 1e-5 {
		t.Fatalf("BP coefficient error %v", d)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-10 {
		t.Fatalf("BP NMSE %v", nm)
	}
}

func TestBasisPursuitMatchesOMPOnEasyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	phi := denseDCT(24)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 2)
	locs, _ := RandomLocations(rng, 24, 10)
	y, _ := Measure(x, locs, rng, nil)
	bp, err := BPDN(op, locs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	omp, err := OMPOp(op, locs, y, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.Norm2(mat.SubVec(bp.Xhat, omp.Xhat)); d > 1e-5 {
		t.Fatalf("BP and OMP disagree by %v", d)
	}
}

func TestCHSRecoversSparseSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	phi := denseDCT(64)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 4)
	locs, _ := RandomLocations(rng, 64, 24)
	y, _ := Measure(x, locs, rng, nil)
	res, err := CHSOp(op, locs, y, CHSOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-12 {
		t.Fatalf("CHS NMSE %v", nm)
	}
	if res.Iterations == 0 {
		t.Fatal("CHS reported zero iterations")
	}
}

func TestCHSWithGLSUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	phi := denseDCT(64)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 4)
	locs, _ := RandomLocations(rng, 64, 28)
	sigmas := make([]float64, 28)
	for i := range sigmas {
		sigmas[i] = 0.02 + 0.3*float64(i%2)
	}
	y, _ := Measure(x, locs, rng, sigmas)
	res, err := CHSOp(op, locs, y, CHSOptions{
		Tol: 1e-6, MaxSupport: 4, Sigmas: sigmas,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 0.05 {
		t.Fatalf("CHS-GLS NMSE %v", nm)
	}
}

// choleskyGLS is the GLS refit as it was computed before it became row
// scaling: build the covariance diag(max(σ, floor)²), factor it with
// Cholesky, whiten sub and y with forward substitution, then solve OLS.
func choleskyGLS(sub *mat.Matrix, y, sigmas []float64, floor float64) ([]float64, error) {
	m := len(sigmas)
	v := mat.New(m, m)
	for i, s := range sigmas {
		if s < floor {
			s = floor
		}
		v.Data[i*m+i] = s * s
	}
	l := mat.New(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			s := v.Data[i*m+j]
			for k := 0; k < j; k++ {
				s -= l.Data[i*m+k] * l.Data[j*m+k]
			}
			if i == j {
				if s <= 0 {
					return nil, mat.ErrSingular
				}
				l.Data[i*m+i] = math.Sqrt(s)
			} else {
				l.Data[i*m+j] = s / l.Data[j*m+j]
			}
		}
	}
	solve := func(b []float64) []float64 {
		x := make([]float64, m)
		for i := 0; i < m; i++ {
			s := b[i]
			for j := 0; j < i; j++ {
				s -= l.Data[i*m+j] * x[j]
			}
			x[i] = s / l.Data[i*m+i]
		}
		return x
	}
	wa := mat.New(sub.Rows, sub.Cols)
	col := make([]float64, sub.Rows)
	for j := 0; j < sub.Cols; j++ {
		for i := range col {
			col[i] = sub.Data[i*sub.Cols+j]
		}
		for i, w := range solve(col) {
			wa.Data[i*sub.Cols+j] = w
		}
	}
	return legacyLeastSquares(wa, solve(y))
}

// The GLS refit divides each row by its floored sigma instead of whitening
// with a Cholesky factor. On a diagonal covariance the two compute the
// same quotients, so the coefficients must agree bit for bit: over random
// covariances spanning six decades, sigmas at and below the floor, a
// single measurement, and the M < K shape both must reject. The refit runs
// on a dictionary whose sampled columns are sub's.
func TestGLSRowScalingMatchesCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		m, k := 1+rng.Intn(40), 1+rng.Intn(8)
		if trial%10 == 0 {
			m, k = 1, 1
		}
		sub, y, sigmas := mat.New(m, k), make([]float64, m), make([]float64, m)
		for i := range sub.Data {
			sub.Data[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = 10 * rng.NormFloat64()
			sigmas[i] = math.Pow(10, -3+3*rng.Float64())
			switch rng.Intn(8) {
			case 0:
				sigmas[i] = 0
			case 1:
				sigmas[i] = minSigma * rng.Float64()
			case 2:
				sigmas[i] = minSigma
			}
		}
		want, wantErr := choleskyGLS(sub, y, sigmas, minSigma)
		got, err := glsRefit(embed(t, sub), new(mat.IncrementalQR), seq(k), y, sigmas)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d (M=%d, K=%d): err %v, Cholesky path err %v", trial, m, k, err, wantErr)
		}
		if m < k && err == nil {
			t.Fatalf("trial %d: M=%d < K=%d solved", trial, m, k)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (M=%d, K=%d): coefficient %d = %v, Cholesky path %v", trial, m, k, i, got[i], want[i])
			}
		}
	}
}

func TestCHSPerIterBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	phi := denseDCT(64)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 6)
	locs, _ := RandomLocations(rng, 64, 30)
	y, _ := Measure(x, locs, rng, nil)
	res, err := CHSOp(op, locs, y, CHSOptions{PerIter: 3, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-10 {
		t.Fatalf("batched CHS NMSE %v", nm)
	}
	// Batched admission must need fewer outer iterations than atoms.
	if res.Iterations > 6 {
		t.Fatalf("batched CHS used %d iterations for 6 atoms", res.Iterations)
	}
}

func TestCHSZeroSignal(t *testing.T) {
	phi := denseDCT(16)
	op := denseOp(t, phi)
	res, err := CHSOp(op, []int{0, 5, 9}, []float64{0, 0, 0}, CHSOptions{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Norm2(res.Xhat) != 0 {
		t.Fatal("zero measurements should give zero field")
	}
}

// TestCHSDuplicateLocationSumsReadings pins CHS's steps (a)+(b) at a
// repeated sensor location: the correlation Φ̃ᵀe sums the readings there,
// as the repeated rows of Φ̃ that the QR factors and the residual fit do.
func TestCHSDuplicateLocationSumsReadings(t *testing.T) {
	op, err := basis.CachedOperator(basis.KindIdentity, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 10 and −10 at cell 2 sum to 0, so the strongest correlation is cell
	// 5's 1; keeping the last reading would have put −10 at cell 2.
	res, err := CHSOp(op, []int{2, 2, 5}, []float64{10, -10, 1}, CHSOptions{MaxSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) != 1 || res.Support[0] != 5 {
		t.Fatalf("support %v, want [5]: the first atom follows the summed readings", res.Support)
	}
}

func TestRandomLocations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	locs, err := RandomLocations(rng, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, l := range locs {
		if l < 0 || l >= 100 {
			t.Fatalf("location %d out of range", l)
		}
		if seen[l] {
			t.Fatalf("duplicate location %d", l)
		}
		seen[l] = true
	}
	if _, err := RandomLocations(rng, 5, 6); err == nil {
		t.Fatal("want m>n error")
	}
	if _, err := RandomLocations(rng, 5, -1); err == nil {
		t.Fatal("want negative error")
	}
}

func TestMeasureBroadcastAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := []float64{1, 2, 3, 4}
	y, err := Measure(x, []int{0, 3}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 1 || y[1] != 4 {
		t.Fatalf("noiseless measure got %v", y)
	}
	if _, err := Measure(x, []int{5}, rng, nil); err == nil {
		t.Fatal("want range error")
	}
	// Broadcast sigma actually perturbs.
	y2, _ := Measure(x, []int{0, 1, 2, 3}, rng, []float64{0.5})
	if mat.Norm2(mat.SubVec(y2, x)) == 0 {
		t.Fatal("broadcast noise had no effect")
	}
}

func TestMetricsKnownValues(t *testing.T) {
	x := []float64{3, 4}
	if v := NMSE(x, x); v != 0 {
		t.Fatalf("NMSE(x,x)=%v", v)
	}
	zero := []float64{0, 0}
	if v := NMSE(x, zero); math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMSE vs zero = %v, want 1", v)
	}
	if v := Accuracy(x, x); v != 1 {
		t.Fatalf("Accuracy(x,x)=%v", v)
	}
	if v := Accuracy(x, []float64{-3, -4}); v != 0 {
		t.Fatalf("Accuracy of anti-signal = %v, want clamp 0", v)
	}
	if !math.IsInf(SNRdB(x, x), 1) {
		t.Fatal("SNR of perfect reconstruction should be +Inf")
	}
	if v := SNRdB(x, zero); math.Abs(v-0) > 1e-9 {
		t.Fatalf("SNR vs zero = %v dB, want 0", v)
	}
	if math.IsNaN(NMSE(x, x)) || !math.IsNaN(NMSE(x, []float64{1})) {
		t.Fatal("NMSE NaN handling wrong")
	}
	if v := NMSE(zero, zero); v != 0 {
		t.Fatalf("NMSE(0,0)=%v", v)
	}
	if !math.IsInf(NMSE(zero, x), 1) {
		t.Fatal("NMSE(0,x)!=Inf")
	}
}

func TestCompressionRatioAndTheoreticalM(t *testing.T) {
	if CompressionRatio(256, 32) != 8 {
		t.Fatal("CompressionRatio wrong")
	}
	if !math.IsInf(CompressionRatio(10, 0), 1) {
		t.Fatal("CompressionRatio(_, 0) should be Inf")
	}
	m := TheoreticalM(5, 256, 1.5)
	want := int(math.Ceil(1.5 * 5 * math.Log(256)))
	if m != want {
		t.Fatalf("TheoreticalM=%d want %d", m, want)
	}
	if TheoreticalM(0, 256, 1) != 0 || TheoreticalM(5, 1, 1) != 0 {
		t.Fatal("degenerate TheoreticalM should be 0")
	}
	if TheoreticalM(1000, 16, 2) != 16 {
		t.Fatal("TheoreticalM should clamp at n")
	}
}

func TestDiagnose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	phi := denseDCT(64)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 4)
	locs, _ := RandomLocations(rng, 64, 24)
	sigmas := []float64{0.01}
	y, _ := Measure(x, locs, rng, sigmas)
	res, err := OMPOp(op, locs, y, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := Diagnose(op, x, locs, res, sigmas)
	if err != nil {
		t.Fatal(err)
	}
	if bd.ApproxNMSE > 1e-18 {
		t.Fatalf("ε_a=%v for exactly-sparse signal, want 0", bd.ApproxNMSE)
	}
	if bd.Condition < 1 {
		t.Fatalf("condition %v < 1", bd.Condition)
	}
	if bd.NoiseNMSE <= 0 {
		t.Fatal("noise NMSE should be positive")
	}
	if bd.TotalNMSE < 0 {
		t.Fatal("total NMSE negative")
	}
	if _, err := Diagnose(op, x, locs, nil, nil); err == nil {
		t.Fatal("want nil-result error")
	}
}

func TestChooseKCrossVal(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	phi := denseDCT(64)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 4)
	locs, _ := RandomLocations(rng, 64, 32)
	y, _ := Measure(x, locs, rng, []float64{0.01})
	k, err := ChooseKCrossValOp(op, locs, y, 12, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	if k < 3 || k > 7 {
		t.Fatalf("cross-validated K=%d, want near 4", k)
	}
	if _, err := ChooseKCrossValOp(op, locs[:2], y[:2], 4, 0.25, rng); err == nil {
		t.Fatal("want too-few-measurements error")
	}
}

// Statistical test: exact recovery succeeds in the overwhelming majority of
// random instances when M = 6K with N=64 (the regime the paper's Fig. 4
// operates in).
func TestRecoveryProbability(t *testing.T) {
	phi := denseDCT(64)
	op := denseOp(t, phi)
	ok := 0
	const trials = 25
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		x, _, _ := sparseSignal(rng, phi, 4)
		locs, _ := RandomLocations(rng, 64, 24)
		y, _ := Measure(x, locs, rng, nil)
		res, err := OMPOp(op, locs, y, 4, 1e-12)
		if err != nil {
			continue
		}
		if NMSE(x, res.Xhat) < 1e-10 {
			ok++
		}
	}
	if ok < trials-3 {
		t.Fatalf("exact recovery in only %d/%d trials", ok, trials)
	}
}

// Property: every recovery result has a valid, duplicate-free support of
// size ≤ min(k, M), and Alpha is zero off-support.
func TestPropResultInvariants(t *testing.T) {
	phi := denseDCT(32)
	op := denseOp(t, phi)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		m := k + 2 + rng.Intn(10)
		x, _, _ := sparseSignal(rng, phi, k)
		locs, err := RandomLocations(rng, 32, m)
		if err != nil {
			return false
		}
		y, err := Measure(x, locs, rng, []float64{0.05})
		if err != nil {
			return false
		}
		res, err := OMPOp(op, locs, y, k, 0)
		if err != nil {
			return false
		}
		if len(res.Support) > k || len(res.Support) > m {
			return false
		}
		seen := map[int]bool{}
		for _, j := range res.Support {
			if j < 0 || j >= 32 || seen[j] {
				return false
			}
			seen[j] = true
		}
		for j, a := range res.Alpha {
			if a != 0 && !seen[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOMP256M30(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	phi := denseDCT(256)
	op := denseOp(b, phi)
	x, _, _ := sparseSignal(rng, phi, 8)
	locs, _ := RandomLocations(rng, 256, 30)
	y, _ := Measure(x, locs, rng, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OMPOp(op, locs, y, 8, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCHS256(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	phi := denseDCT(256)
	op := denseOp(b, phi)
	x, _, _ := sparseSignal(rng, phi, 8)
	locs, _ := RandomLocations(rng, 256, 40)
	y, _ := Measure(x, locs, rng, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CHSOp(op, locs, y, CHSOptions{Tol: 1e-10}); err != nil {
			b.Fatal(err)
		}
	}
}
