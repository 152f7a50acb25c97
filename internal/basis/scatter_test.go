package basis

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// stridedPairs is the paired DCT analysis the 2-D route ran before its
// second stage was batched: count vectors, vector v holding element i at
// v·vecStride + i·stride, two per complex FFT, the odd last one alone,
// working in place when dst is src. Kept as the reference the batched
// route must reproduce bit for bit.
func stridedPairs(o *dctOp, dst, src []float64, count, vecStride, st int) {
	n := o.n
	if n == 1 {
		for v := 0; v < count; v++ {
			dst[v*vecStride] = src[v*vecStride]
		}
		return
	}
	re, im := make([]float64, n), make([]float64, n)
	for v := 0; v < count; v += 2 {
		a, b := v*vecStride, (v+1)*vecStride
		if v+1 == count {
			for i, g := range o.gather {
				re[i], im[i] = src[a+g*st], 0
			}
			o.plan.Butterflies(re, im, false)
			for k, c := range o.fwdCos {
				dst[a+k*st] = c*re[k] + o.fwdSin[k]*im[k]
			}
			continue
		}
		for i, g := range o.gather {
			re[i], im[i] = src[a+g*st], src[b+g*st]
		}
		o.plan.Butterflies(re, im, false)
		for k := 0; k < n; k++ {
			j := (n - k) & (n - 1)
			c, s := 0.5*o.fwdCos[k], 0.5*o.fwdSin[k]
			dst[a+k*st] = c*(re[k]+re[j]) + s*(im[k]-im[j])
			dst[b+k*st] = c*(im[k]+im[j]) - s*(re[k]-re[j])
		}
	}
}

func dctSeparable(t testing.TB, h, w int) *Separable2D {
	t.Helper()
	row, err := OperatorFor(KindDCT, h)
	if err != nil {
		t.Fatal(err)
	}
	col, err := OperatorFor(KindDCT, w)
	if err != nil {
		t.Fatal(err)
	}
	return NewSeparable2D(row, col)
}

// TestSeparable2DAnalysisMatchesStrided pins the batched second stage to
// the strided one it replaced: Separable2D.ApplyTranspose on DCT factors is
// bit-identical to stridedPairs over the columns and then, in place, over
// the rows — square and rectangular, with one- and two-point factors.
func TestSeparable2DAnalysisMatchesStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	shapes := [][2]int{
		{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 64}, {64, 1}, {2, 64}, {64, 2},
		{4, 4}, {8, 8}, {32, 32}, {64, 64}, {256, 256}, {16, 128}, {128, 16}, {8, 32}, {4, 2}, {2, 4},
	}
	for _, s := range shapes {
		h, w := s[0], s[1]
		o := dctSeparable(t, h, w)
		x := randVec(rng, h*w)
		want := make([]float64, h*w)
		stridedPairs(o.rd, want, x, w, h, 1)
		stridedPairs(o.cd, want, want, h, 1, h)
		got := make([]float64, h*w)
		o.ApplyTranspose(got, x)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d: α[%d] = %v, strided route gives %v", h, w, i, got[i], want[i])
			}
		}
	}
}

// scatteredDirect runs the scattered front end whatever scatterWins says.
func scatteredDirect(o *Separable2D, dst []float64, locs []int, vals []float64) {
	o.rowTabOnce.Do(o.buildRowTab)
	sp := o.pool.Get().(*[]float64)
	re, im := (*sp)[:o.n/2], (*sp)[o.n/2:o.n]
	o.scatterStage(re, im, locs, vals)
	o.colStage(dst, re, im)
	o.pool.Put(sp)
}

// scatterDense is the reference: scatter into a zero field, then analyze.
func scatterDense(o Operator, dst []float64, locs []int, vals []float64) {
	x := make([]float64, o.Dim())
	for i, l := range locs {
		x[l] += vals[i]
	}
	o.ApplyTranspose(dst, x)
}

// randLocs draws m locations in [0,n), the first dups of them repeated
// later in the list.
func randLocs(rng *rand.Rand, n, m, dups int) []int {
	locs := make([]int, m)
	for i := range locs {
		locs[i] = rng.Intn(n)
	}
	for i := 0; i < dups && i+1 < m; i++ {
		locs[m-1-i] = locs[i]
	}
	return locs
}

// TestSeparable2DScatteredMatchesDense holds ApplyTransposeScattered to
// scatter + ApplyTranspose: within 1e-12 relative on DCT factors — on both
// sides of the front-end crossover, with duplicate and with no locations —
// and bit for bit where the scattered front end does not apply (factors
// other than DCT, single-row or single-column fields, the dense side of
// the rule).
func TestSeparable2DScatteredMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cases := []struct {
		h, w, m, dups int
		scattered     bool // which side of scatterWins the case sits on
	}{
		{32, 32, 96, 0, true}, {32, 32, 96, 12, true}, {64, 64, 400, 0, true},
		{64, 64, 400, 40, true}, {64, 64, 1024, 0, true}, {64, 64, 1024, 100, true},
		{64, 64, 2048, 0, false}, {64, 64, 2048, 200, false},
		{16, 64, 64, 8, true}, {64, 16, 64, 8, true}, {4, 8, 5, 2, true}, {8, 2, 5, 2, true},
		{2, 2, 3, 1, false}, {2, 8, 5, 2, false}, {8, 8, 512, 0, false}, {32, 32, 0, 0, true},
	}
	for _, c := range cases {
		o := dctSeparable(t, c.h, c.w)
		if got := scatterWins(c.m, c.h, c.w); got != c.scattered {
			t.Fatalf("%dx%d M=%d: scatterWins = %v, the case expects %v", c.h, c.w, c.m, got, c.scattered)
		}
		n := c.h * c.w
		locs := randLocs(rng, n, c.m, c.dups)
		vals := randVec(rng, c.m)
		want := make([]float64, n)
		scatterDense(o, want, locs, vals)
		label := fmt.Sprintf("%dx%d M=%d dups=%d", c.h, c.w, c.m, c.dups)
		got := make([]float64, n)
		o.ApplyTransposeScattered(got, locs, vals)
		if !c.scattered {
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: dense front end differs from scatter+ApplyTranspose at %d", label, i)
				}
			}
		}
		direct := make([]float64, n)
		scatteredDirect(o, direct, locs, vals)
		for name, v := range map[string][]float64{"ApplyTransposeScattered": got, "scattered front end": direct} {
			if d := relDiff(v, want); d > 1e-12 {
				t.Errorf("%s: %s deviates from scatter+ApplyTranspose by %.3g relative", label, name, d)
			}
		}
	}
	// Everything off the scattered route is scatter + ApplyTranspose.
	haar, _ := OperatorFor(KindHaar, 16)
	dft, _ := OperatorFor(KindDFT, 8)
	dct16, _ := OperatorFor(KindDCT, 16)
	dct1, _ := OperatorFor(KindDCT, 1)
	for name, o := range map[string]*Separable2D{
		"haar⊗haar": NewSeparable2D(haar, haar),
		"dct⊗dft":   NewSeparable2D(dct16, dft),
		"1×16":      NewSeparable2D(dct1, dct16),
		"16×1":      NewSeparable2D(dct16, dct1),
	} {
		n := o.Dim()
		locs := randLocs(rng, n, n/3, 2)
		vals := randVec(rng, len(locs))
		want, got := make([]float64, n), make([]float64, n)
		scatterDense(o, want, locs, vals)
		o.ApplyTransposeScattered(got, locs, vals)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: differs from scatter+ApplyTranspose at %d", name, i)
			}
		}
	}
}

// TestSeparable2DScatteredConcurrent shares one cached operator between 8
// goroutines, as the concurrent zone decodes do (on the first run of the
// test the first calls race to build the row table): every result equals a
// serial one on a private operator bit for bit.
func TestSeparable2DScatteredConcurrent(t *testing.T) {
	const h, w, m = 16, 32, 60 // a shape no other test caches
	shared, err := CachedOperator2D(KindDCT, h, w)
	if err != nil {
		t.Fatal(err)
	}
	sa := shared.(*Separable2D)
	ref := dctSeparable(t, h, w)
	rng := rand.New(rand.NewSource(26))
	const workers, rounds = 8, 20
	locs := make([][]int, workers)
	vals := make([][]float64, workers)
	want := make([][]float64, workers)
	for g := range locs {
		locs[g] = randLocs(rng, h*w, m, 4)
		vals[g] = randVec(rng, m)
		want[g] = make([]float64, h*w)
		ref.ApplyTransposeScattered(want[g], locs[g], vals[g])
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]float64, h*w)
			for r := 0; r < rounds; r++ {
				sa.ApplyTransposeScattered(got, locs[g], vals[g])
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[g][i]) {
						errs[g] = fmt.Errorf("goroutine %d round %d: α[%d] = %v, serial %v", g, r, i, got[i], want[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSeparable2DScatteredAllocs: a warm scattered analysis allocates
// nothing on either front end.
func TestSeparable2DScatteredAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool retention; alloc counts are meaningless")
	}
	o := dctSeparable(t, 64, 64)
	rng := rand.New(rand.NewSource(27))
	for _, m := range []int{400, 2048} {
		locs := randLocs(rng, o.Dim(), m, 0)
		vals := randVec(rng, m)
		dst := make([]float64, o.Dim())
		o.ApplyTransposeScattered(dst, locs, vals)
		if allocs := testing.AllocsPerRun(100, func() {
			o.ApplyTransposeScattered(dst, locs, vals)
		}); allocs != 0 {
			t.Errorf("M=%d: %.1f allocs per scattered analysis, want 0", m, allocs)
		}
	}
}

// BenchmarkSeparable2DAnalysis times the two front ends of the scattered
// analysis at the decode shapes of the bench workloads — a 32×32 zone with
// 96 sensors, a 64×64 zone with 400 and with 1024 — for the crossover rule
// in scatterWins: "dense" scatters into a field and runs ApplyTranspose,
// "scattered" accumulates factor rows into the stage-2 planes.
func BenchmarkSeparable2DAnalysis(b *testing.B) {
	for _, c := range [][2]int{{32, 96}, {64, 400}, {64, 1024}} {
		side, m := c[0], c[1]
		o := dctSeparable(b, side, side)
		rng := rand.New(rand.NewSource(28))
		locs := randLocs(rng, o.Dim(), m, 0)
		vals := randVec(rng, m)
		dst := make([]float64, o.Dim())
		x := make([]float64, o.Dim())
		b.Run(fmt.Sprintf("%dx%d_M%d/dense", side, side, m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(x)
				for i, l := range locs {
					x[l] += vals[i]
				}
				o.ApplyTranspose(dst, x)
			}
		})
		b.Run(fmt.Sprintf("%dx%d_M%d/scattered", side, side, m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scatteredDirect(o, dst, locs, vals)
			}
		})
	}
}
