package cs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
)

// TestDecodersDenseMatchOperator pins the dict.go numerical contract at the
// decoder level (DESIGN.md §9): the same problem decoded with the DCT as a
// dense matrix (basis.FromMatrix) and as the FFT-backed operator must admit
// the same atoms in the same order and reconstruct the same signal to
// 1e-9, and Diagnose must give the same breakdown to 1e-9. The signal is
// exactly sparse and the sensors are mildly, heterogeneously noisy, so the
// GLS paths have a covariance to weight by and no admission is a near-tie;
// basis pursuit gets the noiseless readings its equality constraints need.
func TestDecodersDenseMatchOperator(t *testing.T) {
	const bound = 1e-9
	for _, p := range []struct{ n, m, k int }{{64, 32, 4}, {256, 80, 8}} {
		rng := rand.New(rand.NewSource(int64(p.n)))
		phi := denseDCT(p.n)
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
		yClean := make([]float64, p.m)
		for i, l := range locs {
			yClean[i] = x[l]
		}

		decoders := []struct {
			name   string
			decode func(op basis.Operator) (*Result, error)
		}{
			{"OMPOp", func(op basis.Operator) (*Result, error) {
				return OMPOp(op, locs, y, p.k, 0)
			}},
			{"CHSOp/OLS", func(op basis.Operator) (*Result, error) {
				return CHSOp(op, locs, y, CHSOptions{MaxSupport: p.k})
			}},
			{"CHSOp/seeded", func(op basis.Operator) (*Result, error) {
				return CHSOp(op, locs, y, CHSOptions{MaxSupport: p.k, SeedSupport: truth[:p.k/2]})
			}},
			{"CHSOp/GLS", func(op basis.Operator) (*Result, error) {
				return CHSOp(op, locs, y, CHSOptions{MaxSupport: p.k, Sigmas: sigmas})
			}},
			{"IHTOp", func(op basis.Operator) (*Result, error) {
				return IHTOp(op, locs, y, IHTOptions{K: p.k})
			}},
			{"CoSaMPOp", func(op basis.Operator) (*Result, error) {
				return CoSaMPOp(op, locs, y, CoSaMPOptions{K: p.k})
			}},
			{"BPDN/eps=0", func(op basis.Operator) (*Result, error) {
				return BPDN(op, locs, yClean, 0)
			}},
			{"BPDN", func(op basis.Operator) (*Result, error) {
				return BPDN(op, locs, y, NoiseTol(sigmas))
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

		// Diagnose each dictionary's OMP decode in its own basis, at half
		// the true sparsity so that ε_a is not zero.
		breakdown := func(op basis.Operator) *ErrorBreakdown {
			res, err := OMPOp(op, locs, y, p.k/2, 0)
			if err != nil {
				t.Fatal(err)
			}
			bd, err := Diagnose(op, x, locs, res, sigmas)
			if err != nil {
				t.Fatalf("n=%d Diagnose: %v", p.n, err)
			}
			return bd
		}
		bdDense, bdFast := breakdown(dense), breakdown(fast)
		for _, f := range []struct {
			name       string
			got, dense float64
		}{
			{"ApproxNMSE", bdFast.ApproxNMSE, bdDense.ApproxNMSE},
			{"Condition", bdFast.Condition, bdDense.Condition},
			{"NoiseNMSE", bdFast.NoiseNMSE, bdDense.NoiseNMSE},
			{"TotalNMSE", bdFast.TotalNMSE, bdDense.TotalNMSE},
		} {
			if gap := math.Abs(f.got - f.dense); gap > bound {
				t.Errorf("n=%d Diagnose: operator %s = %v, dense %v (|Δ| = %.3g, want ≤ %g)", p.n, f.name, f.got, f.dense, gap, bound)
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
