package fft

import (
	"math"
	"math/rand"
	"testing"
)

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		p, err := PlanFor(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		wantRe, wantIm := Naive(re, im)
		p.Forward(re, im)
		if d := maxAbsDiff(re, wantRe); d > 1e-9 {
			t.Errorf("n=%d: forward re deviates by %.3g", n, d)
		}
		if d := maxAbsDiff(im, wantIm); d > 1e-9 {
			t.Errorf("n=%d: forward im deviates by %.3g", n, d)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 32, 512} {
		p, err := PlanFor(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		origRe := append([]float64(nil), re...)
		origIm := append([]float64(nil), im...)
		p.Forward(re, im)
		p.Inverse(re, im)
		if d := maxAbsDiff(re, origRe); d > 1e-10 {
			t.Errorf("n=%d: round-trip re deviates by %.3g", n, d)
		}
		if d := maxAbsDiff(im, origIm); d > 1e-10 {
			t.Errorf("n=%d: round-trip im deviates by %.3g", n, d)
		}
	}
}

// TestButterfliesOnPermutedInput pins the permuted-input entry: fed the
// signal in bit-reversed order it reproduces Forward bit for bit (Forward is
// the same core behind an in-place swap pass), matches the naive DFT, and in
// the inverse direction returns n times the original signal.
func TestButterfliesOnPermutedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		p, err := PlanFor(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		re, im := make([]float64, n), make([]float64, n)
		permRe, permIm := make([]float64, n), make([]float64, n)
		for i := range re {
			re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for i, r := range p.rev {
			permRe[i], permIm[i] = re[r], im[r]
		}
		naiveRe, naiveIm := Naive(re, im)
		fwdRe, fwdIm := append([]float64(nil), re...), append([]float64(nil), im...)
		p.Forward(fwdRe, fwdIm)
		p.Butterflies(permRe, permIm, false)
		for i := range fwdRe {
			if permRe[i] != fwdRe[i] || permIm[i] != fwdIm[i] {
				t.Fatalf("n=%d: Butterflies differs from Forward at %d", n, i)
			}
		}
		if d := math.Max(maxAbsDiff(permRe, naiveRe), maxAbsDiff(permIm, naiveIm)); d > 1e-9 {
			t.Errorf("n=%d: Butterflies deviates from the naive DFT by %.3g", n, d)
		}
		// Back through the unscaled inverse.
		for i, r := range p.rev {
			permRe[i], permIm[i] = fwdRe[r]/float64(n), fwdIm[r]/float64(n)
		}
		p.Butterflies(permRe, permIm, true)
		if d := math.Max(maxAbsDiff(permRe, re), maxAbsDiff(permIm, im)); d > 1e-10 {
			t.Errorf("n=%d: inverse Butterflies round trip deviates by %.3g", n, d)
		}
	}
}

func TestNonPow2Rejected(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) accepted a non-power-of-two size", n)
		}
	}
}

// TestDeterministic pins the fixed-butterfly-order contract: two transforms
// of the same input must agree bit for bit, including across plan instances.
func TestDeterministic(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(3))
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = rng.NormFloat64()
	}
	run := func(p *Plan) ([]float64, []float64) {
		r := append([]float64(nil), re...)
		q := append([]float64(nil), im...)
		p.Forward(r, q)
		return r, q
	}
	shared, err := PlanFor(n)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	r1, i1 := run(shared)
	r2, i2 := run(fresh)
	for i := range r1 {
		if r1[i] != r2[i] || i1[i] != i2[i] {
			t.Fatalf("bin %d differs between plan instances: (%v,%v) vs (%v,%v)", i, r1[i], i1[i], r2[i], i2[i])
		}
	}
}

// TestTransformAllocs pins the allocation-free butterfly: a transform on
// prepared buffers must not allocate at all.
func TestTransformAllocs(t *testing.T) {
	p, err := PlanFor(512)
	if err != nil {
		t.Fatal(err)
	}
	re := make([]float64, 512)
	im := make([]float64, 512)
	re[3] = 1
	allocs := testing.AllocsPerRun(100, func() {
		p.Forward(re, im)
		p.Inverse(re, im)
	})
	if allocs != 0 {
		t.Fatalf("transform allocated %.1f times per run, want 0", allocs)
	}
}

// TestBatchButterfliesMatchesButterflies pins the batched kernel to the
// single-vector one bit for bit: b interleaved vectors through one
// BatchButterflies call equal b Butterflies calls, both directions, every
// power-of-two size from 1 to 1024.
func TestBatchButterfliesMatchesButterflies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 1024; n <<= 1 {
		p, err := PlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 2, 7, 32} {
			for _, inverse := range []bool{false, true} {
				re, im := make([]float64, n*b), make([]float64, n*b)
				for i := range re {
					re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
				}
				vr, vi := make([]float64, n), make([]float64, n)
				want := make([][2][]float64, b)
				for v := range want {
					for i := 0; i < n; i++ {
						vr[i], vi[i] = re[i*b+v], im[i*b+v]
					}
					p.Butterflies(vr, vi, inverse)
					want[v] = [2][]float64{append([]float64(nil), vr...), append([]float64(nil), vi...)}
				}
				p.BatchButterflies(re, im, b, inverse)
				for v := range want {
					for i := 0; i < n; i++ {
						if math.Float64bits(re[i*b+v]) != math.Float64bits(want[v][0][i]) ||
							math.Float64bits(im[i*b+v]) != math.Float64bits(want[v][1][i]) {
							t.Fatalf("n=%d b=%d inverse=%v: vector %d element %d = (%v, %v), single (%v, %v)",
								n, b, inverse, v, i, re[i*b+v], im[i*b+v], want[v][0][i], want[v][1][i])
						}
					}
				}
			}
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	p, err := PlanFor(1024)
	if err != nil {
		b.Fatal(err)
	}
	re := make([]float64, 1024)
	im := make([]float64, 1024)
	rng := rand.New(rand.NewSource(4))
	for i := range re {
		re[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(re, im)
	}
}
