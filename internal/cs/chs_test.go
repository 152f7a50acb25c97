package cs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sequentialScan is step (c) as one running maximum over the unused
// coefficients, the scan argmaxAbs replaces.
func sequentialScan(a []float64, inSupport []bool) int {
	best, bestJ := 0.0, -1
	for j := range a {
		if inSupport[j] {
			continue
		}
		if c := math.Abs(a[j]); c > best {
			best, bestJ = c, j
		}
	}
	if bestJ < 0 || best == 0 {
		return -1
	}
	return bestJ
}

// TestArgmaxAbsMatchesSequentialScan pins the four-way scan, on a
// correlation whose support entries are zeroed, to the sequential scan
// that skips the support: every length 0–40 and 4096, values drawn from a
// small set so that ties (of equal and of opposite sign) are common, NaNs
// and infinities among them, plus an all-zero vector, an all-NaN one, and
// the maximum placed on the support.
func TestArgmaxAbsMatchesSequentialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 3, -3, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}
	lengths := []int{4096}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	check := func(label string, a []float64, inSupport []bool) {
		t.Helper()
		want := sequentialScan(a, inSupport)
		z := append([]float64(nil), a...)
		for j, in := range inSupport {
			if in {
				z[j] = 0
			}
		}
		if got := argmaxAbs(z); got != want {
			t.Fatalf("%s: argmaxAbs = %d, sequential scan %d (a = %v, support %v)", label, got, want, a, inSupport)
		}
	}
	for _, n := range lengths {
		for trial := 0; trial < 50; trial++ {
			a := make([]float64, n)
			inSupport := make([]bool, n)
			for j := range a {
				if trial%2 == 0 {
					a[j] = pool[rng.Intn(len(pool))]
				} else {
					a[j] = rng.NormFloat64()
				}
				inSupport[j] = rng.Intn(5) == 0
			}
			label := fmt.Sprintf("n=%d trial %d", n, trial)
			check(label, a, inSupport)
			if n > 0 && trial%5 == 0 {
				j := rng.Intn(n) // the largest entry sits on the support
				a[j], inSupport[j] = math.Inf(1), true
				check(label+" max on support", a, inSupport)
			}
		}
		check(fmt.Sprintf("n=%d all zero", n), make([]float64, n), make([]bool, n))
		nan := make([]float64, n)
		for j := range nan {
			nan[j] = math.NaN()
		}
		check(fmt.Sprintf("n=%d all NaN", n), nan, make([]bool, n))
	}
}

// BenchmarkArgmaxAbs is one step-(c) scan of a 64×64 zone's correlation.
func BenchmarkArgmaxAbs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 4096)
	for j := range a {
		a[j] = rng.NormFloat64()
	}
	for b.Loop() {
		argmaxAbs(a)
	}
}
