package mat_test

import (
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/mat"
)

// The batched FFT is benchmarked here, beside its kernels, because only
// this directory's tests can switch between their two paths.

// BenchmarkBatchButterflies is Separable2D's stage 2 on a 64×64 zone: 32
// interleaved 64-point vectors, forward, on the Go loops and on the
// vector bodies.
func BenchmarkBatchButterflies(b *testing.B) {
	const n, batch = 64, 32
	p, err := fft.PlanFor(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	re, im := make([]float64, n*batch), make([]float64, n*batch)
	for i := range re {
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	x, y := make([]float64, n*batch), make([]float64, n*batch)
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		b.Run(path.name, func(b *testing.B) {
			defer mat.SetAVX2(path.avx2)()
			for b.Loop() {
				copy(x, re)
				copy(y, im)
				p.BatchButterflies(x, y, batch, false)
			}
		})
	}
}
