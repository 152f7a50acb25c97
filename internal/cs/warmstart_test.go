package cs

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/basis"
	"repro/internal/mat"
)

// The warm-start contract: re-decoding unchanged measurements seeded with
// the previous Result.Support must be bit-identical to the cold decode —
// same Alpha, Support (order included), Xhat, and Residual, float for
// float. Only Iterations may differ (the warm path skips the greedy
// scans). A bad seed must never corrupt a decode: stale, duplicate, or
// rank-deficient seeds fall back to exactly the cold result.

// warmProblem builds a K-sparse signal in a DCT basis with noisy
// measurements at random locations.
func warmProblem(t *testing.T, n, m, k int, seed int64) (op basis.Operator, locs []int, y []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	op, err := basis.OperatorFor(basis.KindDCT, n)
	if err != nil {
		t.Fatal(err)
	}
	alpha := make([]float64, n)
	for i := 0; i < k; i++ {
		alpha[rng.Intn(n)] = 3 + 2*rng.Float64()
	}
	x := make([]float64, n)
	op.Apply(x, alpha)
	locs, err = RandomLocations(rng, n, m)
	if err != nil {
		t.Fatal(err)
	}
	y, err = Measure(x, locs, rng, []float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	return op, locs, y
}

// assertBitIdentical fails unless two results agree float-for-float on
// everything but Iterations.
func assertBitIdentical(t *testing.T, name string, cold, warm *Result) {
	t.Helper()
	if len(warm.Support) != len(cold.Support) {
		t.Fatalf("%s: support size %d, want %d", name, len(warm.Support), len(cold.Support))
	}
	for i, j := range cold.Support {
		if warm.Support[i] != j {
			t.Fatalf("%s: support[%d] = %d, want %d (admission order must match)", name, i, warm.Support[i], j)
		}
	}
	for i, v := range cold.Alpha {
		if warm.Alpha[i] != v {
			t.Fatalf("%s: alpha[%d] = %v, want %v (must be bit-identical)", name, i, warm.Alpha[i], v)
		}
	}
	for i, v := range cold.Xhat {
		if warm.Xhat[i] != v {
			t.Fatalf("%s: xhat[%d] = %v, want %v (must be bit-identical)", name, i, warm.Xhat[i], v)
		}
	}
	if warm.Residual != cold.Residual {
		t.Fatalf("%s: residual %v, want %v (must be bit-identical)", name, warm.Residual, cold.Residual)
	}
}

func TestWarmStartCHSBitIdenticalOnUnchangedField(t *testing.T) {
	op, locs, y := warmProblem(t, 256, 64, 8, 41)
	opts := CHSOptions{MaxSupport: 12, Tol: 1e-8, PerIter: 1}
	cold, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Support) == 0 {
		t.Fatal("cold decode recovered nothing; test is vacuous")
	}
	opts.SeedSupport = cold.Support
	warm, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "CHSOp", cold, warm)
	if warm.Iterations != 0 {
		t.Fatalf("warm decode of an unchanged field ran %d greedy iterations, want 0", warm.Iterations)
	}
}

func TestWarmStartCHSDenseBitIdentical(t *testing.T) {
	phi := denseDCT(128)
	op := denseOp(t, phi)
	rng := rand.New(rand.NewSource(7))
	alpha := make([]float64, 128)
	for i := 0; i < 5; i++ {
		alpha[rng.Intn(128)] = 2 + rng.Float64()
	}
	x := make([]float64, 128)
	for i := 0; i < 128; i++ {
		for j, a := range alpha {
			if a != 0 {
				x[i] += phi.Data[i*128+j] * a
			}
		}
	}
	locs, err := RandomLocations(rng, 128, 40)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Measure(x, locs, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := CHSOptions{MaxSupport: 8, Tol: 1e-10}
	cold, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SeedSupport = cold.Support
	warm, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "CHS dense", cold, warm)
}

// A seed that is garbage — out-of-range indices, duplicates, or longer
// than the support cap — must be discarded, and the decode must equal the
// cold decode exactly.
func TestWarmStartInvalidSeedFallsBackToCold(t *testing.T) {
	op, locs, y := warmProblem(t, 128, 48, 6, 17)
	opts := CHSOptions{MaxSupport: 10, Tol: 1e-8}
	cold, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, seed := range map[string][]int{
		"out-of-range": {0, 5, 4096},
		"negative":     {-1, 3},
		"duplicate":    {2, 7, 2},
		"oversized":    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	} {
		opts.SeedSupport = seed
		got, err := CHSOp(op, locs, y, opts)
		if err != nil {
			t.Fatalf("%s seed: %v", name, err)
		}
		assertBitIdentical(t, "invalid seed "+name, cold, got)
	}
}

// A seed that passes validSeed and then fails at its second Append must
// fall back to exactly the cold decode. DCT-16 sensed at cells 0 and 15:
// cos(π(2·15+1)k/32) = (−1)ᵏ·cos(πk/32), so every even-index column
// restricted to those two rows is proportional to (1, 1), and the seed
// {0, 2} is in range, distinct and within the cap M = 2, yet rank
// deficient.
func TestWarmStartRankDeficientSeedFallsBackToCold(t *testing.T) {
	op, err := basis.OperatorFor(basis.KindDCT, 16)
	if err != nil {
		t.Fatal(err)
	}
	locs := []int{0, 15}
	seed := []int{0, 2}
	y := []float64{1.5, -0.5}
	if !validSeed(seed, op.Dim(), len(locs), make([]bool, op.Dim())) {
		t.Fatal("validSeed discards the seed: the decode would never try to fold it in")
	}
	var d opDict
	if err := d.reset(op, locs); err != nil {
		t.Fatal(err)
	}
	var qr mat.IncrementalQR
	if err := qr.Reset(len(locs), len(seed)); err != nil {
		t.Fatal(err)
	}
	col := make([]float64, len(locs))
	for i, j := range seed {
		if err := d.col(col, j); err != nil {
			t.Fatal(err)
		}
		err := qr.Append(col)
		if i == 0 && err != nil {
			t.Fatalf("Append refuses the first seed column %v: %v", col, err)
		}
		if i == 1 && err == nil {
			t.Fatalf("Append accepts seed column %d = %v, which column %d spans", j, col, seed[0])
		}
	}
	warm, err := CHSOp(op, locs, y, CHSOptions{SeedSupport: seed})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := CHSOp(op, locs, y, CHSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "rank-deficient seed", cold, warm)
	if warm.Iterations != cold.Iterations {
		t.Fatalf("rank-deficient seed: %d iterations, the cold decode takes %d", warm.Iterations, cold.Iterations)
	}
}

// SeedRelTol: when the field drifts so far that the old support explains
// nothing, the seed must be rejected and the decode must equal cold.
func TestWarmStartSeedRelTolRejectsDriftedSeed(t *testing.T) {
	op, locsA, yA := warmProblem(t, 256, 64, 8, 91)
	prev, err := CHSOp(op, locsA, yA, CHSOptions{MaxSupport: 10, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// A completely different field at the same sensors.
	_, _, yB := warmProblem(t, 256, 64, 8, 1234)
	optsCold := CHSOptions{MaxSupport: 10, Tol: 1e-8}
	cold, err := CHSOp(op, locsA, yB, optsCold)
	if err != nil {
		t.Fatal(err)
	}
	optsWarm := optsCold
	optsWarm.SeedSupport = prev.Support
	optsWarm.SeedRelTol = 0.05 // stricter than the drift allows
	warm, err := CHSOp(op, locsA, yB, optsWarm)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "drift-rejected seed", cold, warm)
}

// A seed whose post-seed residual is already at the readings' noise floor
// ends the decode at iteration 0: a re-measurement of the same field,
// with fresh noise under the floor, keeps the support as it is, where the
// noiseless tolerance would go on admitting atoms that fit the noise.
func TestWarmStartSeedAtNoiseFloorExitsAtIterationZero(t *testing.T) {
	op, locs, y := warmProblem(t, 256, 64, 8, 91)
	sigmas := make([]float64, len(y))
	for i := range sigmas {
		sigmas[i] = 0.01 // warmProblem's noise
	}
	opts := CHSOptions{MaxSupport: 12, Tol: NoiseTol(sigmas)}
	prev, err := CHSOp(op, locs, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	y2 := make([]float64, len(y))
	for i, v := range y {
		y2[i] = v + 0.001*rng.NormFloat64()
	}
	opts.SeedSupport = prev.Support
	warm, err := CHSOp(op, locs, y2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations != 0 || !slices.Equal(warm.Support, prev.Support) {
		t.Fatalf("seed at the noise floor: %d iterations, support %v, want 0 and %v", warm.Iterations, warm.Support, prev.Support)
	}
	opts.Tol = 1e-8
	if noiseless, err := CHSOp(op, locs, y2, opts); err != nil {
		t.Fatal(err)
	} else if noiseless.Iterations == 0 {
		t.Fatal("the noiseless tolerance also stopped at the seed: the case does not exercise the noise floor")
	}
}

// Without a tolerance, a still-valid seed on a slightly-changed field is
// kept and refined; the result must stay a sane reconstruction.
func TestWarmStartRefinesChangedField(t *testing.T) {
	op, locs, y := warmProblem(t, 256, 64, 8, 101)
	prev, err := CHSOp(op, locs, y, CHSOptions{MaxSupport: 12, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	y2 := make([]float64, len(y))
	for i, v := range y {
		y2[i] = v * 1.02 // 2% amplitude drift
	}
	warm, err := CHSOp(op, locs, y2, CHSOptions{MaxSupport: 12, Tol: 1e-8, SeedSupport: prev.Support})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := CHSOp(op, locs, y2, CHSOptions{MaxSupport: 12, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// Pure amplitude scaling keeps the support; the refit coefficients
	// must track the cold solution closely.
	for i, v := range cold.Xhat {
		if math.Abs(warm.Xhat[i]-v) > 1e-6 {
			t.Fatalf("xhat[%d]: warm %v vs cold %v", i, warm.Xhat[i], v)
		}
	}
}
