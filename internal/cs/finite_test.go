package cs

import (
	"errors"
	"math"
	"testing"

	"repro/internal/basis"
)

// hypotResidual is ‖y − x̂(locs)‖₂ accumulated by math.Hypot: slow, but
// it cannot overflow while the true norm is finite.
func hypotResidual(locs []int, y, xhat []float64) float64 {
	r := 0.0
	for i, l := range locs {
		r = math.Hypot(r, y[i]-xhat[l])
	}
	return r
}

func dct1D(t *testing.T, n int) basis.Operator {
	t.Helper()
	op, err := basis.FromMatrix(denseDCT(n))
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestDecodeResidualSurvivesHugeReadings: readings whose squares overflow
// still get a finite residual, equal to the overflow-free norm.
func TestDecodeResidualSurvivesHugeReadings(t *testing.T) {
	locs := []int{0, 1, 3}
	y := []float64{1e308, 1, 0}
	res, err := BPDN(dct1D(t, 4), locs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := hypotResidual(locs, y, res.Xhat); !finite(res.Residual) || math.Abs(res.Residual-want) > 1e-12*want {
		t.Fatalf("BPDN on %v: residual %v, want %v", y, res.Residual, want)
	}

	locs = []int{1, 5, 9}
	y = []float64{1e200, 1e200, 0}
	res, err = CHSOp(dct1D(t, 16), locs, y, CHSOptions{MaxSupport: 3, MaxIter: 3, Tol: 1e-9, PerIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := hypotResidual(locs, y, res.Xhat); !finite(res.Residual) || math.Abs(res.Residual-want) > 1e-12*want {
		t.Fatalf("CHS on %v: residual %v, want %v", y, res.Residual, want)
	}
}

// TestDecodeNonFiniteIsAnError: a decode whose coefficients overflow
// returns ErrNonFinite, not an α of −Inf and an x̂ of NaN.
func TestDecodeNonFiniteIsAnError(t *testing.T) {
	res, err := CHSOp(dct1D(t, 16), []int{1, 5, 9}, []float64{1e308, 1e308, 0}, CHSOptions{MaxSupport: 3, MaxIter: 3, Tol: 1e-9, PerIter: 1})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("got %+v, %v; want ErrNonFinite", res, err)
	}
}

// TestDecodeResidualKeepsItsBits: a residual the plain sum of squares can
// hold is that sum's square root, bit for bit, on a non-empty support
// (packResult) and on an empty one (zeroResult).
func TestDecodeResidualKeepsItsBits(t *testing.T) {
	locs := []int{1, 4, 6, 9, 13}
	y := []float64{2.5, -1, 0.125, 3, -7}
	decodes := map[string]func() (*Result, error){
		"OMP": func() (*Result, error) { return OMPOp(dct1D(t, 16), locs, y, 3, 1e-12) },
		"CHS": func() (*Result, error) {
			return CHSOp(dct1D(t, 16), locs, y, CHSOptions{MaxSupport: 3, MaxIter: 3, Tol: 1e-9})
		},
		"BPDN, empty support": func() (*Result, error) { return BPDN(dct1D(t, 16), locs, y, 100) },
	}
	for name, decode := range decodes {
		res, err := decode()
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i, l := range locs {
			d := y[i] - res.Xhat[l]
			sum += d * d
		}
		if math.Float64bits(res.Residual) != math.Float64bits(math.Sqrt(sum)) {
			t.Fatalf("%s: residual %v, plain sum gives %v", name, res.Residual, math.Sqrt(sum))
		}
		if name == "BPDN, empty support" && len(res.Support) != 0 {
			t.Fatalf("%s: support %v", name, res.Support)
		}
	}
}
