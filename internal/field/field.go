// Package field models the 2-D spatial fields that SenseDroid senses and
// reconstructs: the discretized spatial field map f[i,j] of the paper's §4,
// its column-stacked vectorization (Eq. 1), zone partitioning for the
// hierarchical local-cloud architecture, synthetic field generators used in
// place of real-world phenomena, local sparsity estimation, and the
// interpolation operator Υ used by the Fig. 6 algorithm.
package field

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/basis"
	"repro/internal/mat"
)

// Field is a discretized 2-D spatial map with H rows and W columns.
// Data is column-stacked per the paper's Eq. (1): element (row r, col c)
// lives at Data[c*H + r], so Data is the vector x[k] with N = W·H entries.
type Field struct {
	W, H int
	Data []float64
}

// New returns a zero field of width w and height h.
func New(w, h int) *Field {
	if w < 0 || h < 0 {
		panic("field: negative dimension")
	}
	return &Field{W: w, H: h, Data: make([]float64, w*h)}
}

// N returns the number of grid points W·H.
func (f *Field) N() int { return f.W * f.H }

// At returns the value at row r, column c.
func (f *Field) At(r, c int) float64 { return f.Data[c*f.H+r] }

// Set assigns the value at row r, column c.
func (f *Field) Set(r, c int, v float64) { f.Data[c*f.H+r] = v }

// Index returns the vector index of grid point (row r, col c) under the
// column-stacking convention of Eq. (1).
func (f *Field) Index(r, c int) int { return c*f.H + r }

// Loc inverts Index: the (row, col) of vector position k.
func (f *Field) Loc(k int) (r, c int) { return k % f.H, k / f.H }

// Clone returns a deep copy.
func (f *Field) Clone() *Field {
	out := New(f.W, f.H)
	copy(out.Data, f.Data)
	return out
}

// Vector returns the column-stacked field values. The slice aliases the
// field's storage; callers that mutate it mutate the field.
func (f *Field) Vector() []float64 { return f.Data }

// FromVector builds a field from a column-stacked vector of length w·h.
func FromVector(w, h int, x []float64) (*Field, error) {
	if len(x) != w*h {
		return nil, fmt.Errorf("field: vector length %d, want %d", len(x), w*h)
	}
	out := New(w, h)
	copy(out.Data, x)
	return out, nil
}

// Operator2D returns the matrix-free separable 2-D orthonormal basis
// operator for this field's shape: the row basis of size H Kronecker the
// column basis of size W, matching the column-stacking convention. The
// Kronecker product is never materialized; the operator is memoized per
// (kind, H, W) and safe for concurrent use.
func (f *Field) Operator2D(kind basis.Kind) (basis.Operator, error) {
	return basis.CachedOperator2D(kind, f.H, f.W)
}

// MaxLoc returns the (row, col, value) of the field maximum.
func (f *Field) MaxLoc() (r, c int, v float64) {
	v = math.Inf(-1)
	for k, x := range f.Data {
		if x > v {
			v = x
			r, c = f.Loc(k)
		}
	}
	return r, c, v
}

// --- Synthetic generators -------------------------------------------------

// GenSparseInBasis synthesizes a field that is exactly k-sparse in the
// given 2-D basis, with coefficient magnitudes in [minAmp, maxAmp]. It
// returns the field and the true coefficient support, and is the ground
// truth generator for recovery experiments.
func GenSparseInBasis(rng *rand.Rand, w, h, k int, kind basis.Kind, minAmp, maxAmp float64) (*Field, []int, error) {
	f := New(w, h)
	n := f.N()
	if k > n {
		return nil, nil, fmt.Errorf("field: sparsity %d exceeds grid size %d", k, n)
	}
	op, err := f.Operator2D(kind)
	if err != nil {
		return nil, nil, err
	}
	alpha := make([]float64, n)
	support := rng.Perm(n)[:k]
	for _, j := range support {
		amp := minAmp + rng.Float64()*(maxAmp-minAmp)
		if rng.Intn(2) == 0 {
			amp = -amp
		}
		alpha[j] = amp
	}
	op.Apply(f.Data, alpha)
	return f, support, nil
}

// Plume is one Gaussian source in a plume field: a hotspot with the given
// center, spread and amplitude, e.g. a fire front or a pollutant source.
type Plume struct {
	Row, Col  float64
	Sigma     float64
	Amplitude float64
}

// GenPlumes synthesizes a field as a sum of Gaussian plumes on top of an
// ambient level. This is the physically-shaped workload for the disaster
// response use case (incident perimeter assessment).
func GenPlumes(w, h int, ambient float64, plumes []Plume) *Field {
	f := New(w, h)
	for c := 0; c < w; c++ {
		for r := 0; r < h; r++ {
			v := ambient
			for _, p := range plumes {
				dr := float64(r) - p.Row
				dc := float64(c) - p.Col
				v += p.Amplitude * math.Exp(-(dr*dr+dc*dc)/(2*p.Sigma*p.Sigma))
			}
			f.Set(r, c, v)
		}
	}
	return f
}

// GenRandomPlumes draws count plumes with parameters in natural ranges for
// a w×h grid and returns the synthesized field plus the plume list.
func GenRandomPlumes(rng *rand.Rand, w, h, count int, ambient, maxAmp float64) (*Field, []Plume) {
	plumes := make([]Plume, count)
	for i := range plumes {
		plumes[i] = Plume{
			Row:       rng.Float64() * float64(h-1),
			Col:       rng.Float64() * float64(w-1),
			Sigma:     2 + rng.Float64()*float64(min(w, h))/4,
			Amplitude: maxAmp * (0.3 + 0.7*rng.Float64()),
		}
	}
	return GenPlumes(w, h, ambient, plumes), plumes
}

// GenSmoothGradient synthesizes a smooth field varying linearly plus a slow
// sinusoid — the "smooth data field" assumption of the Luo et al. baseline.
func GenSmoothGradient(w, h int, base, slope, wave float64) *Field {
	f := New(w, h)
	for c := 0; c < w; c++ {
		for r := 0; r < h; r++ {
			v := base + slope*(float64(r)+float64(c))/float64(h+w) +
				wave*math.Sin(2*math.Pi*float64(r)/float64(h))*math.Cos(2*math.Pi*float64(c)/float64(w))
			f.Set(r, c, v)
		}
	}
	return f
}

// AddNoise adds i.i.d. Gaussian noise with the given standard deviation.
func (f *Field) AddNoise(rng *rand.Rand, sigma float64) {
	for i := range f.Data {
		f.Data[i] += rng.NormFloat64() * sigma
	}
}

// --- Zones ------------------------------------------------------------------

// Zone is a rectangular sub-region of a field: the area covered by one
// local cloud in the paper's hierarchy.
type Zone struct {
	ID          int
	Row0, Col0  int // top-left corner
	W, H        int
	Criticality float64 // ≥ 0; relative importance for measurement budget
}

// Partition splits a field into a zr×zc grid of zones (zr zone-rows by zc
// zone-columns). Field dimensions must divide evenly so each zone maps to a
// well-formed sub-grid.
func Partition(f *Field, zr, zc int) ([]Zone, error) {
	if zr <= 0 || zc <= 0 {
		return nil, errors.New("field: zone counts must be positive")
	}
	if f.H%zr != 0 || f.W%zc != 0 {
		return nil, fmt.Errorf("field: %dx%d grid not divisible into %dx%d zones", f.H, f.W, zr, zc)
	}
	zh, zw := f.H/zr, f.W/zc
	zones := make([]Zone, 0, zr*zc)
	id := 0
	for i := 0; i < zr; i++ {
		for j := 0; j < zc; j++ {
			zones = append(zones, Zone{
				ID: id, Row0: i * zh, Col0: j * zw, W: zw, H: zh, Criticality: 1,
			})
			id++
		}
	}
	return zones, nil
}

// Extract copies the zone's sub-region of f into a standalone field.
func Extract(f *Field, z Zone) *Field {
	out := New(z.W, z.H)
	for c := 0; c < z.W; c++ {
		for r := 0; r < z.H; r++ {
			out.Set(r, c, f.At(z.Row0+r, z.Col0+c))
		}
	}
	return out
}

// Insert writes sub back into f at the zone's position — the "concatenate
// the results of the NCs for the local region" step of the paper's §3.
func Insert(f *Field, z Zone, sub *Field) error {
	if sub.W != z.W || sub.H != z.H {
		return fmt.Errorf("field: subfield %dx%d does not match zone %dx%d", sub.H, sub.W, z.H, z.W)
	}
	for c := 0; c < z.W; c++ {
		for r := 0; r < z.H; r++ {
			f.Set(z.Row0+r, z.Col0+c, sub.At(r, c))
		}
	}
	return nil
}

// LocalSparsity estimates the zone's effective sparsity: the number of 2-D
// DCT coefficients needed to capture the given energy fraction (e.g. 0.99)
// of the sub-field. This is the "local spatio-temporal sparsity" the
// hierarchical scheme keys its per-zone measurement count on.
func LocalSparsity(sub *Field, energyFrac float64) (int, error) {
	op, err := sub.Operator2D(basis.KindDCT)
	if err != nil {
		return 0, err
	}
	alpha, err := basis.OpAnalyze(op, sub.Vector())
	if err != nil {
		return 0, err
	}
	total := 0.0
	mags := make([]float64, len(alpha))
	for i, a := range alpha {
		mags[i] = a * a
		total += mags[i]
	}
	if total == 0 {
		return 0, nil
	}
	// Sort magnitudes descending (insertion into sorted prefix is fine for
	// the few-hundred-coefficient zones used here).
	for i := 1; i < len(mags); i++ {
		for j := i; j > 0 && mags[j] > mags[j-1]; j-- {
			mags[j], mags[j-1] = mags[j-1], mags[j]
		}
	}
	acc, k := 0.0, 0
	for _, m := range mags {
		acc += m
		k++
		if acc >= energyFrac*total {
			break
		}
	}
	return k, nil
}

// --- Spatio-temporal traces -------------------------------------------------

// Traces holds T historical snapshots of a field process as the T×N matrix
// X of the paper's §4, used to learn priors (PCA basis) per region.
type Traces struct {
	W, H int
	X    *mat.Matrix // T×N, each row a column-stacked field
}

// CollectTraces samples the evolving process gen(t) at t = 0..T-1.
func CollectTraces(w, h, t int, gen func(step int) *Field) (*Traces, error) {
	x := mat.New(t, w*h)
	for step := 0; step < t; step++ {
		f := gen(step)
		if f.W != w || f.H != h {
			return nil, fmt.Errorf("field: trace %d has shape %dx%d, want %dx%d", step, f.H, f.W, h, w)
		}
		copy(x.Data[step*w*h:(step+1)*w*h], f.Data)
	}
	return &Traces{W: w, H: h, X: x}, nil
}

// LearnBasis returns the PCA basis of the traces (see basis.Learn).
func (tr *Traces) LearnBasis() (*mat.Matrix, []float64, error) {
	return basis.Learn(tr.X)
}

// Mean returns the per-cell mean field of the traces. Recovery in a PCA
// basis should run on mean-centered measurements (the eigenvectors span
// the *variation* around this mean), so brokers that exploit prior data
// subtract Mean at the sensor locations before decoding and add it back
// after synthesis.
func (tr *Traces) Mean() []float64 {
	n := tr.W * tr.H
	mu := make([]float64, n)
	if tr.X.Rows == 0 {
		return mu
	}
	for i := 0; i < tr.X.Rows; i++ {
		for j := 0; j < n; j++ {
			mu[j] += tr.X.At(i, j)
		}
	}
	for j := range mu {
		mu[j] /= float64(tr.X.Rows)
	}
	return mu
}

// --- Interpolation operator Υ ------------------------------------------------

// InterpolateNearest implements the Υ: R^M → R^N operator of the Fig. 6
// algorithm with nearest-neighbour interpolation: each grid point takes the
// value of the nearest measured location (Euclidean distance on the grid).
// locs are vector indices (Eq. 1 convention) of the M measurements; vals
// are the corresponding measured values.
func InterpolateNearest(w, h int, locs []int, vals []float64) ([]float64, error) {
	if len(locs) != len(vals) {
		return nil, errors.New("field: locs/vals length mismatch")
	}
	if len(locs) == 0 {
		return make([]float64, w*h), nil
	}
	f := New(w, h)
	out := make([]float64, w*h)
	type pt struct{ r, c int }
	pts := make([]pt, len(locs))
	for i, k := range locs {
		if k < 0 || k >= w*h {
			return nil, fmt.Errorf("field: location %d out of range [0,%d)", k, w*h)
		}
		r, c := f.Loc(k)
		pts[i] = pt{r, c}
	}
	for k := 0; k < w*h; k++ {
		r, c := f.Loc(k)
		best, bi := math.Inf(1), 0
		for i, p := range pts {
			dr, dc := float64(r-p.r), float64(c-p.c)
			d := dr*dr + dc*dc
			if d < best {
				best, bi = d, i
			}
		}
		out[k] = vals[bi]
	}
	return out, nil
}

// InterpolateIDW implements Υ with inverse-distance weighting (power 2),
// which gives a smoother initial field estimate than nearest-neighbour.
func InterpolateIDW(w, h int, locs []int, vals []float64) ([]float64, error) {
	if len(locs) != len(vals) {
		return nil, errors.New("field: locs/vals length mismatch")
	}
	if len(locs) == 0 {
		return make([]float64, w*h), nil
	}
	f := New(w, h)
	out := make([]float64, w*h)
	type pt struct{ r, c int }
	pts := make([]pt, len(locs))
	for i, k := range locs {
		if k < 0 || k >= w*h {
			return nil, fmt.Errorf("field: location %d out of range [0,%d)", k, w*h)
		}
		r, c := f.Loc(k)
		pts[i] = pt{r, c}
	}
	for k := 0; k < w*h; k++ {
		r, c := f.Loc(k)
		num, den := 0.0, 0.0
		exact := false
		for i, p := range pts {
			dr, dc := float64(r-p.r), float64(c-p.c)
			d := dr*dr + dc*dc
			if d == 0 {
				out[k] = vals[i]
				exact = true
				break
			}
			wgt := 1 / d
			num += wgt * vals[i]
			den += wgt
		}
		if !exact {
			out[k] = num / den
		}
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
