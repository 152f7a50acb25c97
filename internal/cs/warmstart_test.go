package cs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
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
	phi := basis.DCT(128)
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

func TestWarmStartOMPBitIdenticalOnUnchangedField(t *testing.T) {
	op, locs, y := warmProblem(t, 256, 64, 8, 43)
	cold, err := OMPOp(op, locs, y, 10, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Support) == 0 {
		t.Fatal("cold decode recovered nothing; test is vacuous")
	}
	warm, err := OMPSeededOp(op, locs, y, 10, 1e-8, cold.Support)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "OMPSeededOp", cold, warm)
	if warm.Iterations != 0 {
		t.Fatalf("warm OMP of an unchanged field ran %d iterations, want 0", warm.Iterations)
	}
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

// A rank-deficient seed (the same direction twice via distinct indices
// that alias at the sensors) must also fall back cold rather than error.
func TestWarmStartRankDeficientSeedFallsBackToCold(t *testing.T) {
	// One measurement: every 1-column system is full rank, but any second
	// column is linearly dependent in R^1.
	op, err := basis.OperatorFor(basis.KindDCT, 16)
	if err != nil {
		t.Fatal(err)
	}
	locs := []int{3}
	y := []float64{1.5}
	cold, err := OMPOp(op, locs, y, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := OMPSeededOp(op, locs, y, 1, 0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Oversized for k=1 → invalid → cold.
	assertBitIdentical(t, "oversized seed", cold, warm)
	warmCHS, err := CHSOp(op, locs, y, CHSOptions{MaxSupport: 2, SeedSupport: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	coldCHS, err := CHSOp(op, locs, y, CHSOptions{MaxSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "rank-deficient seed", coldCHS, warmCHS)
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
