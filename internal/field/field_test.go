package field

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/basis"
	"repro/internal/mat"
)

func TestIndexLocRoundTrip(t *testing.T) {
	f := New(5, 3)
	for k := 0; k < f.N(); k++ {
		r, c := f.Loc(k)
		if f.Index(r, c) != k {
			t.Fatalf("Index(Loc(%d)) = %d", k, f.Index(r, c))
		}
	}
}

func TestAtSetVectorConvention(t *testing.T) {
	// Eq. (1) column-stacking: (r,c) lives at c*H + r.
	f := New(4, 3) // W=4, H=3
	f.Set(2, 3, 7)
	if f.Data[3*3+2] != 7 {
		t.Fatalf("column-stacking convention violated: %v", f.Data)
	}
	if f.At(2, 3) != 7 {
		t.Fatal("At/Set mismatch")
	}
}

func TestFromVector(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	f, err := FromVector(2, 3, x)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(0, 0) != 1 || f.At(2, 0) != 3 || f.At(0, 1) != 4 {
		t.Fatalf("FromVector layout wrong: %+v", f)
	}
	if _, err := FromVector(2, 2, x); err == nil {
		t.Fatal("want length error")
	}
}

func TestGenSparseInBasisIsExactlySparse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, support, err := GenSparseInBasis(rng, 8, 8, 5, basis.KindDCT, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(support) != 5 {
		t.Fatalf("support size %d", len(support))
	}
	phi, _ := basis.Kron2D(basis.DCT(f.H), basis.DCT(f.W))
	alpha, _ := basis.Analyze(phi, f.Vector())
	if nz := mat.Norm0(alpha, 1e-9); nz != 5 {
		t.Fatalf("field has %d nonzero coefficients, want 5", nz)
	}
	for _, j := range support {
		if math.Abs(alpha[j]) < 1-1e-9 {
			t.Fatalf("support coefficient %d magnitude %v < 1", j, alpha[j])
		}
	}
}

func TestGenSparseTooSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, _, err := GenSparseInBasis(rng, 2, 2, 5, basis.KindDCT, 1, 2); err == nil {
		t.Fatal("want error when k > N")
	}
}

func TestGenPlumesPeakNearCenter(t *testing.T) {
	f := GenPlumes(32, 32, 10, []Plume{{Row: 10, Col: 20, Sigma: 3, Amplitude: 50}})
	r, c, v := f.MaxLoc()
	if r != 10 || c != 20 {
		t.Fatalf("peak at (%d,%d), want (10,20)", r, c)
	}
	if math.Abs(v-60) > 1e-6 {
		t.Fatalf("peak value %v, want 60", v)
	}
	// Far corner should be near ambient.
	if d := f.At(31, 0) - 10; d > 1 {
		t.Fatalf("far corner %v above ambient", d)
	}
}

func TestGenRandomPlumesInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f, plumes := GenRandomPlumes(rng, 16, 24, 4, 5, 30)
	if len(plumes) != 4 {
		t.Fatalf("plume count %d", len(plumes))
	}
	for _, p := range plumes {
		if p.Row < 0 || p.Row > 23 || p.Col < 0 || p.Col > 15 {
			t.Fatalf("plume out of bounds: %+v", p)
		}
	}
	for _, v := range f.Data {
		if v < 5-1e-9 {
			t.Fatalf("field value %v below ambient", v)
		}
	}
}

func TestAddNoiseChangesField(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := New(8, 8)
	f.AddNoise(rng, 1.0)
	v := mat.Variance(f.Data)
	if v < 0.5 || v > 2.0 {
		t.Fatalf("noise variance %v far from 1", v)
	}
}

func TestPartition(t *testing.T) {
	f := New(8, 6)
	zones, err := Partition(f, 2, 4) // 2 zone-rows × 4 zone-cols
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 8 {
		t.Fatalf("zone count %d", len(zones))
	}
	// Zones tile the grid exactly once.
	seen := make(map[int]int)
	for _, z := range zones {
		if z.W != 2 || z.H != 3 {
			t.Fatalf("zone shape %dx%d, want 3x2", z.H, z.W)
		}
		for c := 0; c < z.W; c++ {
			for r := 0; r < z.H; r++ {
				seen[f.Index(z.Row0+r, z.Col0+c)]++
			}
		}
	}
	if len(seen) != f.N() {
		t.Fatalf("zones cover %d points, want %d", len(seen), f.N())
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("point %d covered %d times", k, n)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	f := New(8, 6)
	if _, err := Partition(f, 0, 2); err == nil {
		t.Fatal("want error for zero zones")
	}
	if _, err := Partition(f, 4, 2); err == nil {
		t.Fatal("want error for indivisible height")
	}
}

func TestExtractInsertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := New(8, 8)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	zones, _ := Partition(f, 2, 2)
	rebuilt := New(8, 8)
	for _, z := range zones {
		sub := Extract(f, z)
		if err := Insert(rebuilt, z, sub); err != nil {
			t.Fatal(err)
		}
	}
	if d := mat.Norm2(mat.SubVec(rebuilt.Data, f.Data)); d > 0 {
		t.Fatalf("round trip differs by %v", d)
	}
}

func TestInsertShapeError(t *testing.T) {
	f := New(8, 8)
	if err := Insert(f, Zone{W: 4, H: 4}, New(2, 2)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestLocalSparsityOrdersZonesCorrectly(t *testing.T) {
	// A flat zone needs ~1 coefficient; a busy zone needs many.
	flat := New(8, 8)
	for i := range flat.Data {
		flat.Data[i] = 5
	}
	rng := rand.New(rand.NewSource(6))
	busy := New(8, 8)
	for i := range busy.Data {
		busy.Data[i] = rng.NormFloat64()
	}
	kFlat, err := LocalSparsity(flat, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	kBusy, err := LocalSparsity(busy, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if kFlat != 1 {
		t.Fatalf("flat zone sparsity %d, want 1", kFlat)
	}
	if kBusy <= 10 {
		t.Fatalf("busy zone sparsity %d, want much larger than flat", kBusy)
	}
	zero := New(4, 4)
	k0, _ := LocalSparsity(zero, 0.99)
	if k0 != 0 {
		t.Fatalf("zero field sparsity %d, want 0", k0)
	}
}

func TestCollectTracesAndLearn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(step int) *Field {
		return GenPlumes(6, 6, 0, []Plume{{
			Row: 2 + 0.1*float64(step), Col: 3, Sigma: 2, Amplitude: 10 + rng.Float64(),
		}})
	}
	tr, err := CollectTraces(6, 6, 20, gen)
	if err != nil {
		t.Fatal(err)
	}
	if tr.X.Rows != 20 || tr.X.Cols != 36 {
		t.Fatalf("trace matrix %dx%d", tr.X.Rows, tr.X.Cols)
	}
	vecs, vals, err := tr.LearnBasis()
	if err != nil {
		t.Fatal(err)
	}
	if vecs.Rows != 36 || len(vals) != 36 {
		t.Fatal("learned basis shape wrong")
	}
}

func TestCollectTracesShapeMismatch(t *testing.T) {
	_, err := CollectTraces(4, 4, 2, func(step int) *Field { return New(3, 3) })
	if err == nil {
		t.Fatal("want shape error")
	}
}

func TestInterpolateNearestExactAtSamples(t *testing.T) {
	locs := []int{0, 10, 30}
	vals := []float64{1, 2, 3}
	out, err := InterpolateNearest(6, 6, locs, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range locs {
		if out[k] != vals[i] {
			t.Fatalf("sample %d not preserved: %v", k, out[k])
		}
	}
	// Every output value is one of the sample values.
	for _, v := range out {
		if v != 1 && v != 2 && v != 3 {
			t.Fatalf("unexpected interpolated value %v", v)
		}
	}
}

func TestInterpolateIDWExactAtSamplesAndBounded(t *testing.T) {
	locs := []int{0, 35}
	vals := []float64{0, 10}
	out, err := InterpolateIDW(6, 6, locs, vals)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[35] != 10 {
		t.Fatal("IDW not exact at samples")
	}
	for _, v := range out {
		if v < 0-1e-9 || v > 10+1e-9 {
			t.Fatalf("IDW value %v outside sample range", v)
		}
	}
}

func TestInterpolateErrors(t *testing.T) {
	if _, err := InterpolateNearest(4, 4, []int{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := InterpolateNearest(4, 4, []int{99}, []float64{1}); err == nil {
		t.Fatal("want range error")
	}
	if _, err := InterpolateIDW(4, 4, []int{-1}, []float64{1}); err == nil {
		t.Fatal("want range error")
	}
	out, err := InterpolateIDW(4, 4, nil, nil)
	if err != nil || len(out) != 16 {
		t.Fatal("empty interpolation should give zero field")
	}
}

// Property: Extract/Insert over a random partition always reassembles the
// original field exactly.
func TestPropZoneReassembly(t *testing.T) {
	f2 := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		zr := 1 + rng.Intn(3)
		zc := 1 + rng.Intn(3)
		w, h := zc*(1+rng.Intn(4)), zr*(1+rng.Intn(4))
		f := New(w, h)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		zones, err := Partition(f, zr, zc)
		if err != nil {
			return false
		}
		rebuilt := New(w, h)
		for _, z := range zones {
			if err := Insert(rebuilt, z, Extract(f, z)); err != nil {
				return false
			}
		}
		for i := range f.Data {
			if rebuilt.Data[i] != f.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenPlumes64(b *testing.B) {
	plumes := []Plume{{Row: 10, Col: 20, Sigma: 5, Amplitude: 50}, {Row: 50, Col: 40, Sigma: 8, Amplitude: 30}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenPlumes(64, 64, 10, plumes)
	}
}

func BenchmarkLocalSparsity16(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	f, _ := GenRandomPlumes(rng, 16, 16, 2, 5, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocalSparsity(f, 0.99); err != nil {
			b.Fatal(err)
		}
	}
}
