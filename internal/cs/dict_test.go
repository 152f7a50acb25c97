package cs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
)

// TestDecodersDenseMatchOperator pins the dict.go numerical contract at the
// decoder level (DESIGN.md §9): the same problem decoded with the DCT as a
// dense matrix (basis.FromMatrix of the operator's columns) and as the
// FFT-backed operator must admit the same atoms in the same order and
// reconstruct the same signal to 1e-9, and Diagnose must give the same
// breakdown to 1e-9. The 1-D rows read the operator's table rows and
// entries; the 16×16 row is a Separable2D 2-D DCT, whose OMP column norms
// and admitted columns come from its memoized factor columns. The signal is
// exactly sparse and the sensors are mildly, heterogeneously noisy, so the
// GLS paths have a covariance to weight by and no admission is a near-tie;
// basis pursuit gets the noiseless readings its equality constraints need.
func TestDecodersDenseMatchOperator(t *testing.T) {
	const bound = 1e-9
	for _, p := range []struct{ n, m, k, h int }{{64, 32, 4, 0}, {256, 80, 8, 0}, {256, 80, 8, 16}} {
		rng := rand.New(rand.NewSource(int64(p.n)))
		label := fmt.Sprintf("dct%d", p.n)
		fast, err := basis.CachedOperator(basis.KindDCT, p.n)
		if p.h > 0 {
			label = fmt.Sprintf("dct%dx%d", p.h, p.n/p.h)
			fast, err = basis.CachedOperator2D(basis.KindDCT, p.h, p.n/p.h)
		}
		if err != nil {
			t.Fatal(err)
		}
		phi := opColumns(fast)
		dense := denseOp(t, phi)
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
				t.Fatalf("%s %s dense: %v", label, d.name, err)
			}
			got, err := d.decode(fast)
			if err != nil {
				t.Fatalf("%s %s operator: %v", label, d.name, err)
			}
			if len(got.Support) != len(want.Support) {
				t.Fatalf("%s %s: operator support %v, dense %v", label, d.name, got.Support, want.Support)
			}
			for i, j := range want.Support {
				if got.Support[i] != j {
					t.Fatalf("%s %s: operator support %v, dense %v (order included)", label, d.name, got.Support, want.Support)
				}
			}
			gap := 0.0
			for i, xv := range want.Xhat {
				gap = math.Max(gap, math.Abs(got.Xhat[i]-xv))
			}
			if gap > bound {
				t.Errorf("%s %s: max |ΔXhat| = %.3g between dictionaries, want ≤ %g", label, d.name, gap, bound)
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
				t.Fatalf("%s Diagnose: %v", label, err)
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
				t.Errorf("%s Diagnose: operator %s = %v, dense %v (|Δ| = %.3g, want ≤ %g)", label, f.name, f.got, f.dense, gap, bound)
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
			t.Errorf("%s ChooseKCrossValOp: operator chose K=%d, dense K=%d", label, kFast, kDense)
		}
	}
}

// TestSepColAllocatesNothing pins at run time the zero-allocation
// contract of opDict.sepCol, a hot entry point (lint.HotEntryPoints): an
// admitted atom's column gathered at the sensors from the operator's
// memoized factor columns.
func TestSepColAllocatesNothing(t *testing.T) {
	op, err := basis.CachedOperator2D(basis.KindDCT, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := RandomLocations(rand.New(rand.NewSource(5)), op.Dim(), 40)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newOpDict(op, locs)
	if err != nil {
		t.Fatal(err)
	}
	if d.sep == nil {
		t.Fatal("a 2-D DCT operator is not separable")
	}
	dst := make([]float64, len(locs))
	d.sepCol(dst, 37)
	if allocs := testing.AllocsPerRun(100, func() { d.sepCol(dst, 37) }); allocs != 0 {
		t.Errorf("opDict.sepCol: %.1f allocs per column, want 0", allocs)
	}
}
