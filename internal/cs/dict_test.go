package cs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
)

// TestDecodersDenseMatchOperator pins the dict.go numerical contract at the
// decoder level (DESIGN.md §9): the same problem decoded through the dense
// reference dictionary (basis.FromMatrix) and through the matrix-free one
// (the FFT-backed DCT operator) must admit the same atoms in the same order
// and reconstruct the same signal to 1e-9. The signal is exactly sparse and
// the sensors are mildly, heterogeneously noisy, so the GLS paths have a
// covariance to weight by and no admission is a near-tie.
func TestDecodersDenseMatchOperator(t *testing.T) {
	const bound = 1e-9
	for _, p := range []struct{ n, m, k int }{{64, 32, 4}, {256, 80, 8}} {
		rng := rand.New(rand.NewSource(int64(p.n)))
		phi := basis.DCT(p.n)
		dense := denseOp(t, phi)
		fast, err := basis.CachedOperator(basis.KindDCT, p.n)
		if err != nil {
			t.Fatal(err)
		}
		x, _, truth := sparseSignal(rng, phi, p.k)
		locs, err := RandomLocations(rng, p.n, p.m)
		if err != nil {
			t.Fatal(err)
		}
		sigmas := make([]float64, p.m)
		for i := range sigmas {
			sigmas[i] = 0.01
			if i%2 == 1 {
				sigmas[i] = 0.05
			}
		}
		y, err := Measure(x, locs, rng, sigmas)
		if err != nil {
			t.Fatal(err)
		}
		v := NoiseCovariance(sigmas, 1e-6)
		mu := make([]float64, p.n)
		for i := range mu {
			mu[i] = 20 + 0.1*float64(i%7)
		}
		yMu := make([]float64, p.m)
		for i, l := range locs {
			yMu[i] = y[i] + mu[l]
		}

		decoders := []struct {
			name   string
			decode func(op basis.Operator) (*Result, error)
		}{
			{"OMPOp", func(op basis.Operator) (*Result, error) {
				return OMPOp(op, locs, y, p.k, 0)
			}},
			{"OMPSeededOp", func(op basis.Operator) (*Result, error) {
				return OMPSeededOp(op, locs, y, p.k, 0, truth[:p.k/2])
			}},
			{"OMPCenteredOp", func(op basis.Operator) (*Result, error) {
				return OMPCenteredOp(op, locs, yMu, mu, p.k, 0)
			}},
			{"CHSOp/OLS", func(op basis.Operator) (*Result, error) {
				return CHSOp(op, locs, y, CHSOptions{MaxSupport: p.k})
			}},
			{"CHSOp/GLS", func(op basis.Operator) (*Result, error) {
				return CHSOp(op, locs, y, CHSOptions{MaxSupport: p.k, V: v})
			}},
			{"IHTOp", func(op basis.Operator) (*Result, error) {
				return IHTOp(op, locs, y, IHTOptions{K: p.k})
			}},
			{"CoSaMPOp", func(op basis.Operator) (*Result, error) {
				return CoSaMPOp(op, locs, y, CoSaMPOptions{K: p.k})
			}},
		}
		for _, d := range decoders {
			want, err := d.decode(dense)
			if err != nil {
				t.Fatalf("n=%d %s dense: %v", p.n, d.name, err)
			}
			got, err := d.decode(fast)
			if err != nil {
				t.Fatalf("n=%d %s operator: %v", p.n, d.name, err)
			}
			if len(got.Support) != len(want.Support) {
				t.Fatalf("n=%d %s: operator support %v, dense %v", p.n, d.name, got.Support, want.Support)
			}
			for i, j := range want.Support {
				if got.Support[i] != j {
					t.Fatalf("n=%d %s: operator support %v, dense %v (order included)", p.n, d.name, got.Support, want.Support)
				}
			}
			gap := 0.0
			for i, xv := range want.Xhat {
				gap = math.Max(gap, math.Abs(got.Xhat[i]-xv))
			}
			if gap > bound {
				t.Errorf("n=%d %s: max |ΔXhat| = %.3g between dictionaries, want ≤ %g", p.n, d.name, gap, bound)
			}
		}

		// The cross-validation sweep draws its split from rng: give both
		// dictionaries the same stream.
		kDense, err := ChooseKCrossValOp(dense, locs, y, 3*p.k, 0.25, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		kFast, err := ChooseKCrossValOp(fast, locs, y, 3*p.k, 0.25, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		if kFast != kDense {
			t.Errorf("n=%d ChooseKCrossValOp: operator chose K=%d, dense K=%d", p.n, kFast, kDense)
		}
	}
}
