package cs

// Every decoder runs on one sensing dictionary, opDict: the paper's
// Φ̃ = Φ(L,:) (§4) for a basis.Operator Φ sampled at the sensor locations
// L. Φ̃ is applied matrix-free, by scatter/gather around Apply and
// ApplyTranspose: a correlation Φ̃ᵀr scatters the M residual values onto
// the full grid and runs one analysis — or, on a 2-D operator, hands the M
// values to its scattered analysis, which on DCT factors with few sensors
// skips the full grid and the first-stage FFTs; a column Φ̃e_j is read
// entry by entry (entryReader), built from two memoized factor columns
// (basis.Separable2D), or synthesized and gathered at the sensors.
// No decoder gathers the whole M×N sensing matrix or forms the N×N basis,
// which is what unlocks 1024² grids (dense Φ there would be (2²⁰)² floats
// ≈ 8 TB). A dense basis enters through basis.FromMatrix,
// whose stored rows and entries make its column norms O(n) per sensor and
// each column O(m).
//
// Numerical contract: a fast operator reassociates floating-point sums
// inside its transforms, so its decodes agree with the same basis wrapped
// by basis.FromMatrix to the ≤1e-9 equivalence bound of DESIGN.md §9
// rather than bit for bit, and the scattered correlation agrees with
// scatter + ApplyTranspose to ≤1e-12 relative. Every decode is
// deterministic at every GOMAXPROCS.

import (
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/mat"
)

// opDict is the sensing dictionary Φ̃ = Φ(L,:): m = len(locs) rows, n
// columns, sampled from the n×n operator op.
type opDict struct {
	op   basis.Operator
	locs []int
	n    int
	full []float64 // length-n scatter buffer, kept all-zero between uses
	out  []float64 // length-n transform output buffer

	// sep is op when it is separable (basis.Separable2D); locR/locC then
	// hold each location's grid row and column, split once per decode.
	sep        separable
	locR, locC []int
	// scat is op's scattered analysis when it has one (basis.Separable2D).
	scat scatteredAnalyzer
}

// separable is a 2-D operator whose column jc·h + jr is the outer product
// of row-factor column jr (length h) and column-factor column jc: entry
// (c·h + r, j) is u[r]·v[c] for u, v = FactorColumns(j).
type separable interface {
	Factors() (rowOp, colOp basis.Operator)
	FactorColumns(j int) (u, v []float64)
}

// scatteredAnalyzer is an operator that analyzes a signal given only at
// some locations: dst = Φᵀx for x = vals at locs (accumulating duplicates),
// zero elsewhere.
type scatteredAnalyzer interface {
	ApplyTransposeScattered(dst []float64, locs []int, vals []float64)
}

// rowReader is an operator that reads row i of Φ into dst (length n) in
// O(n), without a transform.
type rowReader interface {
	RowInto(dst []float64, i int)
}

// entryReader is an operator that reads the entry Φ[i,j] in O(1).
type entryReader interface {
	Entry(i, j int) float64
}

func newOpDict(op basis.Operator, locs []int) (*opDict, error) {
	d := new(opDict)
	if err := d.reset(op, locs); err != nil {
		return nil, err
	}
	return d, nil
}

// reset points d at op sampled at locs. The full, out and factor-column
// buffers keep their storage when it is large enough; full is zeroed, as
// corrT, fillCol and synth expect. On error d is unchanged.
func (d *opDict) reset(op basis.Operator, locs []int) error {
	if len(locs) == 0 {
		return ErrNoMeasurements
	}
	n := op.Dim()
	for _, l := range locs {
		if l < 0 || l >= n {
			return fmt.Errorf("cs: location %d out of range [0,%d)", l, n)
		}
	}
	scat, _ := op.(scatteredAnalyzer)
	sep, _ := op.(separable)
	*d = opDict{
		op: op, locs: locs, n: n,
		full: resized(d.full, n),
		out:  resized(d.out, n),
		sep:  sep, locR: d.locR, locC: d.locC,
		scat: scat,
	}
	clear(d.full)
	if sep != nil {
		rowOp, _ := sep.Factors()
		h := rowOp.Dim()
		d.locR, d.locC = resized(d.locR, len(locs)), resized(d.locC, len(locs))
		for i, l := range locs {
			d.locR[i], d.locC[i] = l%h, l/h
		}
	}
	return nil
}

func (d *opDict) rows() int { return len(d.locs) }

// corrT is steps (a)+(b) of CHS's Fig. 6 loop: it scatters the residual
// onto the grid, zeros elsewhere — the interpolant Υ, under which
// Φ̃ᵀr = Φᵀ(Υ r) — and runs one analysis; an operator with a scattered
// analysis takes the M values directly. Duplicate locations accumulate,
// as the rows of Φ̃ they repeat do.
func (d *opDict) corrT(dst, r []float64) {
	if d.scat != nil {
		d.scat.ApplyTransposeScattered(dst, d.locs, r)
		return
	}
	for i, l := range d.locs {
		d.full[l] += r[i]
	}
	d.op.ApplyTranspose(dst, d.full)
	for _, l := range d.locs {
		d.full[l] = 0
	}
}

// col synthesizes basis vector j and gathers it at the sensors straight
// into dst. It does not memoize: every caller folds each column into a
// QR factorization that keeps its own copy, once per decode.
func (d *opDict) col(dst []float64, j int) error {
	if j < 0 || j >= d.n {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadSupport, j, d.n)
	}
	d.fillCol(dst, j)
	return nil
}

// fillCol writes Φ̃ e_j into dst (length m).
func (d *opDict) fillCol(dst []float64, j int) {
	if d.sep != nil {
		d.sepCol(dst, j)
	} else if ea, ok := d.op.(entryReader); ok {
		// Entry by entry, the column restricted to the m sampled rows
		// costs O(m), not one full synthesis.
		for i, l := range d.locs {
			dst[i] = ea.Entry(l, j)
		}
	} else {
		d.full[j] = 1
		d.op.Apply(d.out, d.full)
		d.full[j] = 0
		for i, l := range d.locs {
			dst[i] = d.out[l]
		}
	}
}

// sepCol exploits separability: column jc·h+jr of a 2-D operator is the
// outer product of the 1-D factor columns, which the operator memoizes, so
// it costs one O(M) gather instead of one full n-point synthesis.
func (d *opDict) sepCol(dst []float64, j int) {
	u, v := d.sep.FactorColumns(j)
	for i, r := range d.locR {
		dst[i] = u[r] * v[d.locC[i]]
	}
}

// colNorms fills dst with the column norms ‖Φ̃e_j‖, done once per decode
// and only by OMP; col is scratch of length m. A separable operator's
// columns are gathered by sepCol, O(m) each, which reads every factor
// column once and so fills both factors' memos. Otherwise the norms are
// row norms of Φ over the sampled locations: row locs[i] is Φᵀe_{locs[i]},
// read in O(n) from a rowReader or analyzed by one full transform per
// measurement.
func (d *opDict) colNorms(dst, col []float64) {
	if d.sep != nil {
		for j := range dst {
			d.sepCol(col, j)
			dst[j] = mat.Norm2(col)
		}
		return
	}
	clear(dst)
	ra, _ := d.op.(rowReader)
	for _, l := range d.locs {
		if ra != nil {
			ra.RowInto(d.out, l)
		} else {
			d.full[l] = 1
			d.op.ApplyTranspose(d.out, d.full)
			d.full[l] = 0
		}
		for j, v := range d.out {
			dst[j] += v * v
		}
	}
	for j, s := range dst {
		dst[j] = math.Sqrt(s)
	}
}

// predict computes dst = Φ̃ α (length m) from a full-length coefficient
// vector.
func (d *opDict) predict(dst, alpha []float64) {
	d.op.Apply(d.out, alpha)
	for i, l := range d.locs {
		dst[i] = d.out[l]
	}
}

// factorInto factors the m×|idx| system Φ̃_idx of a least-squares step
// into qr, appending the gathered columns in idx's order, each entry i
// divided by div[i] when div is non-nil. The columns pass through the
// scratch column c (length m), which Append copies. It fails with
// mat.ErrSingular at a column dependent on those before it.
func (d *opDict) factorInto(qr *mat.IncrementalQR, idx []int, div, c []float64) error {
	if err := qr.Reset(len(d.locs), len(idx)); err != nil {
		return err
	}
	for _, j := range idx {
		if err := d.col(c, j); err != nil {
			return err
		}
		if div != nil {
			for i := range c {
				c[i] /= div[i]
			}
		}
		if err := qr.Append(c); err != nil {
			return err
		}
	}
	return nil
}

// synth reconstructs the full signal Φ·α from support-packed coefficients.
func (d *opDict) synth(support []int, coef []float64) []float64 {
	xhat := make([]float64, d.n)
	if len(support) == 0 {
		return xhat
	}
	for s, j := range support {
		d.full[j] = coef[s]
	}
	d.op.Apply(xhat, d.full)
	for _, j := range support {
		d.full[j] = 0
	}
	return xhat
}

// packResult assembles the Result every decoder returns: full-length
// alpha, synthesized xhat, and the sensor-residual norm, whose sensor
// predictions (Φ̃_J coef)_i = xhat[locs[i]] are read straight off xhat.
// It and zeroResult are the shared exit of every decoder, so a decode
// whose α, x̂ or residual is not finite ends here as ErrNonFinite.
func packResult(d *opDict, support []int, coef, y []float64, iters int) (*Result, error) {
	alpha := make([]float64, d.n)
	for s, j := range support {
		alpha[j] = coef[s]
	}
	return finiteResult(&Result{
		Alpha: alpha, Support: support, Xhat: d.synth(support, coef),
		Iterations: iters,
	}, coef, d.locs, y)
}

// zeroResult is the empty-support decode outcome.
func zeroResult(d *opDict, y []float64, iters int) (*Result, error) {
	return finiteResult(&Result{
		Alpha: make([]float64, d.n), Support: nil,
		Xhat: make([]float64, d.n), Iterations: iters,
	}, nil, d.locs, y)
}

// finiteResult fills in r's Residual, ‖y − x̂(locs)‖₂, and returns r if
// α (zero but for its support coefficients coef), x̂ and the residual are
// all finite, else ErrNonFinite.
func finiteResult(r *Result, coef []float64, locs []int, y []float64) (*Result, error) {
	r.Residual = residualNorm(locs, y, r.Xhat)
	if !finite(r.Residual) || !allFinite(coef) || !allFinite(r.Xhat) {
		return nil, fmt.Errorf("%w: residual %v", ErrNonFinite, r.Residual)
	}
	return r, nil
}

// residualNorm is ‖y − x̂(locs)‖₂ without overflow. The plain sum of
// squares comes first, so every residual it can hold keeps its bits; only
// if that sum overflows is it taken again scaled by the largest
// |difference|. It is +Inf only if a difference itself overflows, and NaN
// if one is NaN.
func residualNorm(locs []int, y, xhat []float64) float64 {
	sum := 0.0
	for i, l := range locs {
		diff := y[i] - xhat[l]
		sum += diff * diff
	}
	if !math.IsInf(sum, 1) {
		return math.Sqrt(sum)
	}
	scale := 0.0
	for i, l := range locs {
		scale = max(scale, math.Abs(y[i]-xhat[l]))
	}
	if math.IsInf(scale, 1) {
		return scale
	}
	sum = 0
	for i, l := range locs {
		diff := (y[i] - xhat[l]) / scale
		sum += diff * diff
	}
	return scale * math.Sqrt(sum)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func allFinite(v []float64) bool {
	for _, x := range v {
		if !finite(x) {
			return false
		}
	}
	return true
}
