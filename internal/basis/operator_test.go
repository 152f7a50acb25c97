package basis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func opMaxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// operatorKinds are the families with an OperatorFor implementation.
var operatorKinds = []Kind{KindIdentity, KindDCT, KindDFT, KindHaar}

// TestOperatorMatchesDense is the core equivalence property from the issue:
// for each kind and a spread of sizes (including non-dyadic fallback sizes
// for DCT/DFT), Apply/ApplyTranspose agree with the dense matrix multiply
// to ≤1e-9 max-abs-diff.
func TestOperatorMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := map[Kind][]int{
		KindIdentity: {1, 4, 6, 20, 64, 100, 256, 1024},
		KindDCT:      {1, 4, 6, 8, 16, 20, 64, 100, 256, 1024},
		KindDFT:      {1, 2, 4, 6, 8, 16, 20, 64, 100, 256, 1024},
		KindHaar:     {1, 4, 8, 16, 64, 256, 1024},
	}
	for _, kind := range operatorKinds {
		for _, n := range sizes[kind] {
			op, err := OperatorFor(kind, n)
			if err != nil {
				t.Fatalf("OperatorFor(%s, %d): %v", kind, n, err)
			}
			if op.Dim() != n {
				t.Fatalf("%s/%d: Dim() = %d", kind, n, op.Dim())
			}
			phi := denseBasis(t, kind, n)
			x := randVec(rng, n)
			got := make([]float64, n)

			op.Apply(got, x)
			if d := opMaxAbsDiff(got, mulVec(phi, x)); d > 1e-9 {
				t.Errorf("%s/%d: Apply deviates from dense by %.3g", kind, n, d)
			}

			op.ApplyTranspose(got, x)
			if d := opMaxAbsDiff(got, mulTVec(phi, x)); d > 1e-9 {
				t.Errorf("%s/%d: ApplyTranspose deviates from dense by %.3g", kind, n, d)
			}
		}
	}
}

// rowEntryReader is the row and entry access the decoders look for on an
// operator.
type rowEntryReader interface {
	RowInto(dst []float64, i int)
	Entry(i, j int) float64
}

// TestRowIntoMatchesTranspose pins the table rows and entries against the
// transform path: for every operator with row and entry access, RowInto(i)
// and each Entry(i, j) must agree with Φᵀe_i to ≤1e-9. Small operators are
// checked at every row; at n = 16384 and 65536 the DCT and DFT are checked
// at a few rows that include n−1, whose last entry's DCT table index
// (n−1)(2n−1) passes 2³¹ at n = 65536 — the case a 32-bit int would wrap.
func TestRowIntoMatchesTranspose(t *testing.T) {
	check := func(t *testing.T, label string, op Operator, rows []int) {
		t.Helper()
		re, ok := op.(rowEntryReader)
		if !ok {
			t.Fatalf("%s: operator %T has no row and entry access", label, op)
		}
		n := op.Dim()
		e := make([]float64, n)
		want := make([]float64, n)
		got := make([]float64, n)
		for _, i := range rows {
			e[i] = 1
			op.ApplyTranspose(want, e)
			e[i] = 0
			re.RowInto(got, i)
			if d := opMaxAbsDiff(got, want); d > 1e-9 {
				t.Fatalf("%s: row %d deviates from ApplyTranspose by %.3g", label, i, d)
			}
			for j := 0; j < n; j++ {
				if d := math.Abs(re.Entry(i, j) - want[j]); d > 1e-9 {
					t.Fatalf("%s: Entry(%d,%d) deviates from transform by %.3g", label, i, j, d)
				}
			}
		}
	}
	every := func(n int) []int {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	for _, kind := range []Kind{KindIdentity, KindDCT, KindDFT} {
		for _, n := range []int{1, 4, 16, 64, 256} {
			if kind == KindDFT && n == 1 {
				n = 2
			}
			op, err := OperatorFor(kind, n)
			if err != nil {
				t.Fatalf("OperatorFor(%s, %d): %v", kind, n, err)
			}
			check(t, fmt.Sprintf("%s/fast-%d", kind, n), op, every(n))
		}
	}
	for _, kind := range []Kind{KindDCT, KindDFT} {
		for _, n := range []int{16384, 65536} {
			op, err := OperatorFor(kind, n)
			if err != nil {
				t.Fatalf("OperatorFor(%s, %d): %v", kind, n, err)
			}
			check(t, fmt.Sprintf("%s/fast-%d", kind, n), op, []int{0, 1, 12345, n/2 - 1, n - 2, n - 1})
		}
	}
	// The dense fallback (MatrixOp).
	dense, err := FromMatrix(dct(20))
	if err != nil {
		t.Fatal(err)
	}
	check(t, "dct/dense-20", dense, every(20))
}

// TestOperatorRoundTrip pins orthonormality in operator form:
// ApplyTranspose(Apply(x)) ≈ x and Apply(ApplyTranspose(x)) ≈ x.
func TestOperatorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, kind := range operatorKinds {
		for _, n := range []int{1, 4, 16, 100, 256, 1024} {
			if kind == KindHaar && n == 100 {
				continue
			}
			op, err := OperatorFor(kind, n)
			if err != nil {
				t.Fatalf("OperatorFor(%s, %d): %v", kind, n, err)
			}
			x := randVec(rng, n)
			mid := make([]float64, n)
			back := make([]float64, n)
			op.Apply(mid, x)
			op.ApplyTranspose(back, mid)
			if d := opMaxAbsDiff(back, x); d > 1e-9 {
				t.Errorf("%s/%d: analyze∘synthesize deviates by %.3g", kind, n, d)
			}
			op.ApplyTranspose(mid, x)
			op.Apply(back, mid)
			if d := opMaxAbsDiff(back, x); d > 1e-9 {
				t.Errorf("%s/%d: synthesize∘analyze deviates by %.3g", kind, n, d)
			}
		}
	}
}

// TestSeparable2DMatchesKron checks the 2-D operator against the
// materialized Kronecker product it replaces, in both directions.
func TestSeparable2DMatchesKron(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		kind Kind
		h, w int
	}{
		{KindDCT, 4, 4}, {KindDCT, 8, 16}, {KindDCT, 16, 8},
		{KindDFT, 8, 8}, {KindHaar, 16, 16}, {KindDCT, 6, 10},
	}
	for _, c := range cases {
		rowOp, err := OperatorFor(c.kind, c.h)
		if err != nil {
			t.Fatalf("row OperatorFor(%s, %d): %v", c.kind, c.h, err)
		}
		colOp, err := OperatorFor(c.kind, c.w)
		if err != nil {
			t.Fatalf("col OperatorFor(%s, %d): %v", c.kind, c.w, err)
		}
		sep := NewSeparable2D(rowOp, colOp)
		if sep.Dim() != c.h*c.w {
			t.Fatalf("%s %dx%d: Dim() = %d", c.kind, c.h, c.w, sep.Dim())
		}
		kron := kron2D(denseBasis(t, c.kind, c.h), denseBasis(t, c.kind, c.w))
		x := randVec(rng, c.h*c.w)
		got := make([]float64, c.h*c.w)

		sep.Apply(got, x)
		if d := opMaxAbsDiff(got, mulVec(kron, x)); d > 1e-9 {
			t.Errorf("%s %dx%d: Apply deviates from kron2D by %.3g", c.kind, c.h, c.w, d)
		}

		sep.ApplyTranspose(got, x)
		if d := opMaxAbsDiff(got, mulTVec(kron, x)); d > 1e-9 {
			t.Errorf("%s %dx%d: ApplyTranspose deviates from kron2D by %.3g", c.kind, c.h, c.w, d)
		}
	}
}

// TestOperatorDeterministic pins the determinism contract: repeated applies
// of the same input are bit-identical, including across operator instances.
func TestOperatorDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, kind := range operatorKinds {
		op1, err := OperatorFor(kind, 256)
		if err != nil {
			t.Fatal(err)
		}
		op2, err := OperatorFor(kind, 256)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, 256)
		a := make([]float64, 256)
		b := make([]float64, 256)
		op1.Apply(a, x)
		op2.Apply(b, x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Apply not bit-identical across instances at %d: %v vs %v", kind, i, a[i], b[i])
			}
		}
		op1.Apply(b, x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Apply not bit-identical across calls at %d", kind, i)
			}
		}
	}
}

// TestOperatorForErrors walks the factory's rejection paths.
func TestOperatorForErrors(t *testing.T) {
	if _, err := OperatorFor(KindHaar, 12); err == nil {
		t.Error("OperatorFor(haar, 12) accepted a non-power-of-two size")
	}
	if _, err := OperatorFor(KindLearned, 16); err == nil {
		t.Error("OperatorFor(learned, 16) succeeded without traces")
	}
	if _, err := OperatorFor(Kind("bogus"), 16); err == nil {
		t.Error("OperatorFor accepted an unknown kind")
	}
	if _, err := OperatorFor(KindDCT, -3); err == nil {
		t.Error("OperatorFor accepted a negative size")
	}
	if _, err := FromMatrix(mat.New(3, 4)); err == nil {
		t.Error("FromMatrix accepted a non-square matrix")
	}
}

// TestFromMatrixLearned covers the documented route for learned bases: wrap
// the learned matrix and get dense-equivalent behavior.
func TestFromMatrixLearned(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	traces := mat.New(40, 12)
	for i := range traces.Data {
		traces.Data[i] = rng.NormFloat64()
	}
	phi, _, err := Learn(traces)
	if err != nil {
		t.Fatal(err)
	}
	op, err := FromMatrix(phi)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if op.Entry(i, j) != phi.At(i, j) {
				t.Fatalf("Entry(%d,%d) = %v, want the wrapped basis's %v", i, j, op.Entry(i, j), phi.At(i, j))
			}
		}
	}
	x := randVec(rng, 12)
	got := make([]float64, 12)
	op.Apply(got, x)
	if d := opMaxAbsDiff(got, mulVec(phi, x)); d != 0 {
		t.Errorf("FromMatrix Apply deviates from dense by %.3g (want bit-identical)", d)
	}
}

// TestOperatorAllocs pins the hot-path contract from the issue: steady-state
// applies through the pooled scratch must allocate no more than the dense
// path (which allocates nothing into prepared buffers) — i.e. zero.
func TestOperatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool retention; alloc counts are meaningless")
	}
	for _, kind := range []Kind{KindDCT, KindDFT, KindHaar} {
		op, err := OperatorFor(kind, 512)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 512)
		y := make([]float64, 512)
		x[7] = 1
		allocs := testing.AllocsPerRun(200, func() {
			op.Apply(y, x)
			op.ApplyTranspose(x, y)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per apply pair, want 0 (dense path bound)", kind, allocs)
		}
	}
}

func benchOperatorDCT(b *testing.B, n int) {
	op, err := OperatorFor(KindDCT, n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	x := randVec(rng, n)
	y := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.ApplyTranspose(y, x)
	}
}

func benchDenseDCT(b *testing.B, n int) {
	phi := dct(n)
	rng := rand.New(rand.NewSource(18))
	x := randVec(rng, n)
	y := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mat.MulTVecInto(y, phi, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOperatorDCT64(b *testing.B)   { benchOperatorDCT(b, 64) }
func BenchmarkOperatorDCT1024(b *testing.B) { benchOperatorDCT(b, 1024) }
func BenchmarkDenseDCT64(b *testing.B)      { benchDenseDCT(b, 64) }
func BenchmarkDenseDCT1024(b *testing.B)    { benchDenseDCT(b, 1024) }

// benchOperatorDCT2D times one analysis plus one synthesis of an n×n field
// through the separable DCT — the shape of the bench's basis.dct2d_*_us probe
// and of one CHS iteration's residual analysis.
func benchOperatorDCT2D(b *testing.B, n int) {
	f, err := OperatorFor(KindDCT, n)
	if err != nil {
		b.Fatal(err)
	}
	op := NewSeparable2D(f, f)
	x := randVec(rand.New(rand.NewSource(19)), n*n)
	y := make([]float64, n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.ApplyTranspose(y, x)
		op.Apply(x, y)
	}
}

func BenchmarkOperatorDCT2D64(b *testing.B)  { benchOperatorDCT2D(b, 64) }
func BenchmarkOperatorDCT2D256(b *testing.B) { benchOperatorDCT2D(b, 256) }

// TestFactorColumnsMatchApply pins Separable2D's memoized factor columns
// to the factor's own synthesis of the unit vector, bit for bit, on the
// first use of a column and on a hit, for DCT factors n = 2…256 and for
// factors that are not DCTs: Haar, the DFT and a dense MatrixOp. A nested
// Separable2D factor's column is pinned bit for bit to the outer product
// of its own factor columns, and to within 1e-15 of its synthesis (its
// paired-FFT route rounds differently). Only the columns asked for hold
// memory.
func TestFactorColumnsMatchApply(t *testing.T) {
	haar, _ := OperatorFor(KindHaar, 16)
	dft, _ := OperatorFor(KindDFT, 8)
	dense, _ := OperatorFor(KindDCT, 12)
	if _, ok := dense.(*MatrixOp); !ok {
		t.Fatalf("DCT-12 is %T, want the dense fallback", dense)
	}
	ops := map[string]*Separable2D{
		"haar⊗dft":   NewSeparable2D(haar, dft),
		"dense⊗haar": NewSeparable2D(dense, haar),
		"nested":     NewSeparable2D(dctSeparable(t, 4, 8), dft),
	}
	for n := 2; n <= 256; n *= 2 {
		ops[fmt.Sprintf("dct%d", n)] = dctSeparable(t, n, n)
	}
	for name, o := range ops {
		row, col := o.Factors()
		h, w := row.Dim(), col.Dim()
		synth := func(f Operator, j int) []float64 {
			e, c := make([]float64, f.Dim()), make([]float64, f.Dim())
			e[j] = 1
			f.Apply(c, e)
			return c
		}
		want := func(f Operator, j int) []float64 {
			s, ok := f.(*Separable2D)
			if !ok {
				return synth(f, j)
			}
			u, v := s.FactorColumns(j)
			c := make([]float64, f.Dim())
			for i := range c {
				c[i] = u[i%len(u)] * v[i/len(u)]
			}
			for i, x := range synth(f, j) {
				if math.Abs(c[i]-x) > 1e-15 {
					t.Fatalf("%s: nested column %d entry %d = %v, Apply(e) gives %v", name, j, i, c[i], x)
				}
			}
			return c
		}
		filled := func(m *colMemo) int {
			k := 0
			for i := range m.cols {
				if m.cols[i].Load() != nil {
					k++
				}
			}
			return k
		}
		o.FactorColumns(h + 1)
		if r, c := filled(&o.rowCols), filled(&o.colCols); r != 1 || c != 1 {
			t.Fatalf("%s: one column read filled %d row and %d column slots, want 1 and 1", name, r, c)
		}
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < max(h, w); k++ {
				u, v := o.FactorColumns((k%w)*h + k%h)
				for what, p := range map[string][2][]float64{
					fmt.Sprintf("row column %d", k%h): {u, want(row, k%h)},
					fmt.Sprintf("col column %d", k%w): {v, want(col, k%w)},
				} {
					for i := range p[1] {
						if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
							t.Fatalf("%s pass %d: %s entry %d = %v, Apply(e) gives %v", name, pass, what, i, p[0][i], p[1][i])
						}
					}
				}
			}
		}
	}
}

// TestFactorColumnsAllocs: reading a memoized factor column allocates
// nothing.
func TestFactorColumnsAllocs(t *testing.T) {
	o := dctSeparable(t, 64, 64)
	o.FactorColumns(130)
	if allocs := testing.AllocsPerRun(100, func() { o.FactorColumns(130) }); allocs != 0 {
		t.Errorf("%.1f allocs per memoized column read, want 0", allocs)
	}
}
