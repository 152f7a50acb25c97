package basis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// relDiff is max|a−b| over max|b| (1 for an all-zero reference).
func relDiff(a, b []float64) float64 {
	scale := 0.0
	for _, v := range b {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 {
		scale = 1
	}
	return opMaxAbsDiff(a, b) / scale
}

// TestDCTPairedMatchesSingle pins the paired kernels to the single-vector
// ones: two (and three, for the odd tail) vectors through synthPairs agree
// with per-vector Apply to ≤ 1e-12 relative, for every power-of-two size up
// to 1024, contiguous and strided, out of place and in place. (The paired
// analysis is Separable2D's batched stage 1, pinned bit for bit by
// TestSeparable2DAnalysisMatchesStrided.)
func TestDCTPairedMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 1; n <= 1024; n <<= 1 {
		o, err := newDCTOp(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, count := range []int{2, 3} {
			layouts := []struct {
				name              string
				vecStride, stride int
			}{
				{"contiguous", n, 1},     // vectors back to back
				{"strided", 1, count},    // vectors interleaved element by element
				{"padded", n + 3, 1},     // contiguous with a gap between vectors
				{"wide", 2, 2*count + 1}, // offset and stride both non-unit
			}
			for _, l := range layouts {
				size := (count-1)*l.vecStride + (n-1)*l.stride + 1
				src := randVec(rng, size)
				label := fmt.Sprintf("n=%d count=%d %s", n, count, l.name)
				want := make([]float64, size)
				copy(want, src) // slots no vector covers must come through untouched
				in, out := make([]float64, n), make([]float64, n)
				for v := 0; v < count; v++ {
					for i := range in {
						in[i] = src[v*l.vecStride+i*l.stride]
					}
					o.Apply(out, in)
					for i, x := range out {
						want[v*l.vecStride+i*l.stride] = x
					}
				}
				got := make([]float64, size)
				copy(got, src)
				o.synthPairs(got, src, count, l.vecStride, l.stride)
				if d := relDiff(got, want); d > 1e-12 {
					t.Errorf("%s: paired synthesis deviates from single by %.3g relative", label, d)
				}
				inPlace := make([]float64, size)
				copy(inPlace, src)
				o.synthPairs(inPlace, inPlace, count, l.vecStride, l.stride)
				for i := range got {
					if inPlace[i] != got[i] {
						t.Fatalf("%s: in-place result differs from out-of-place at %d", label, i)
					}
				}
			}
		}
	}
}

// plainOp hides every refinement of the wrapped operator (its concrete DCT
// type in particular), forcing Separable2D onto its generic per-vector loop.
type plainOp struct{ Operator }

// TestSeparable2DPairedMatchesGeneric runs the paired route against the
// generic transpose-based loop over the same factors, on square, rectangular,
// single-row/column (the odd-count tail) and degenerate shapes.
func TestSeparable2DPairedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := [][2]int{{1, 1}, {1, 8}, {8, 1}, {2, 2}, {2, 16}, {16, 2}, {8, 32}, {32, 8}, {64, 64}, {1, 64}, {128, 4}}
	for _, s := range shapes {
		h, w := s[0], s[1]
		row, err := OperatorFor(KindDCT, h)
		if err != nil {
			t.Fatal(err)
		}
		col, err := OperatorFor(KindDCT, w)
		if err != nil {
			t.Fatal(err)
		}
		paired := NewSeparable2D(row, col)
		if paired.rd == nil {
			t.Fatalf("dct/%d ⊗ dct/%d did not take the paired route", h, w)
		}
		generic := NewSeparable2D(plainOp{row}, plainOp{col})
		if generic.rd != nil {
			t.Fatal("plainOp leaks the DCT factor; the reference would take the paired route too")
		}
		x := randVec(rng, h*w)
		got, want := make([]float64, h*w), make([]float64, h*w)
		paired.ApplyTranspose(got, x)
		generic.ApplyTranspose(want, x)
		if d := relDiff(got, want); d > 1e-12 {
			t.Errorf("%dx%d: paired ApplyTranspose deviates from generic by %.3g relative", h, w, d)
		}
		paired.Apply(got, x)
		generic.Apply(want, x)
		if d := relDiff(got, want); d > 1e-12 {
			t.Errorf("%dx%d: paired Apply deviates from generic by %.3g relative", h, w, d)
		}
	}
	// A factor pair where only one side is an FFT-backed DCT stays generic.
	dct, _ := OperatorFor(KindDCT, 8)
	haar, _ := OperatorFor(KindHaar, 4)
	mixed := NewSeparable2D(dct, haar)
	ref := NewSeparable2D(plainOp{dct}, haar)
	x := randVec(rng, 32)
	got, want := make([]float64, 32), make([]float64, 32)
	mixed.ApplyTranspose(got, x)
	ref.ApplyTranspose(want, x)
	if d := opMaxAbsDiff(got, want); d != 0 {
		t.Errorf("dct⊗haar: mixed factors left the generic loop (diff %.3g)", d)
	}
}

// TestNestedSpatioTemporalMatchesDense builds the operator of
// cs.DecodeSpatioTemporal — a 2-D spatial Separable2D on the rows, a temporal
// DCT on the columns — and checks it against the materialized Kronecker
// product: the outer level runs the generic loop (its row factor is nested),
// the inner one the paired route.
func TestNestedSpatioTemporalMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, steps := range []int{4, 5} { // FFT and dense-fallback temporal factor
		const h, w = 8, 4
		rowOp, _ := OperatorFor(KindDCT, h)
		colOp, _ := OperatorFor(KindDCT, w)
		tempo, err := CachedOperator(KindDCT, steps)
		if err != nil {
			t.Fatal(err)
		}
		joint := NewSeparable2D(NewSeparable2D(rowOp, colOp), tempo)
		space, err := Kron2D(CachedDCT(h), CachedDCT(w))
		if err != nil {
			t.Fatal(err)
		}
		dense, err := Kron2D(space, CachedDCT(steps))
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, joint.Dim())
		got := make([]float64, joint.Dim())
		joint.ApplyTranspose(got, x)
		want, err := mat.MulTVec(dense, x)
		if err != nil {
			t.Fatal(err)
		}
		if d := opMaxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("T=%d: nested ApplyTranspose deviates from dense by %.3g", steps, d)
		}
		joint.Apply(got, x)
		if want, err = Synthesize(dense, x); err != nil {
			t.Fatal(err)
		}
		if d := opMaxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("T=%d: nested Apply deviates from dense by %.3g", steps, d)
		}
	}
}

// TestSeparable2DAllocs: steady-state 2-D applies allocate nothing on either
// route — the paired one takes each factor's complex scratch once per apply,
// the generic one its plane scratch.
func TestSeparable2DAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool retention; alloc counts are meaningless")
	}
	dct, _ := OperatorFor(KindDCT, 64)
	haar, _ := OperatorFor(KindHaar, 64)
	for name, op := range map[string]*Separable2D{
		"paired":  NewSeparable2D(dct, dct),
		"generic": NewSeparable2D(haar, haar),
	} {
		x := make([]float64, op.Dim())
		y := make([]float64, op.Dim())
		x[7] = 1
		allocs := testing.AllocsPerRun(100, func() {
			op.ApplyTranspose(y, x)
			op.Apply(x, y)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per analysis+synthesis, want 0", name, allocs)
		}
	}
}
