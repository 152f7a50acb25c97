package cs

// The decoders are written against a sensing dictionary abstraction so the
// same greedy cores serve two execution paths:
//
//   - denseDict: the reference path. Φ and Φ̃ = Φ(L,:) are explicit
//     matrices and every operation delegates to the exact mat kernels the
//     decoders called before the abstraction existed, in the same order —
//     the dense path stays bit-identical decode for decode.
//   - opDict: the matrix-free fast path. Φ is a basis.Operator and Φ̃ is
//     applied by scatter/gather around Apply/ApplyTranspose: a correlation
//     Φ̃ᵀr scatters the M residual values onto the full grid and runs one
//     O(n log n) analysis — or, on a 2-D operator, hands the M values to
//     its scattered analysis, which on DCT factors with few sensors skips
//     the full grid and the first-stage FFTs; a column Φ̃e_j synthesizes
//     one basis vector and gathers it at the sensor locations. No M×N
//     sensing matrix — and no N×N basis — is ever materialized, which is
//     what unlocks 1024² grids (dense Φ there would be (2²⁰)² floats ≈ 8 TB).
//
// Numerical contract: both paths implement the same linear algebra; the op
// path reassociates floating-point sums inside the fast transforms, so its
// results agree with dense to the documented ≤1e-9 equivalence bound
// (DESIGN.md §9) rather than bit-for-bit, and the scattered correlation
// agrees with scatter + ApplyTranspose to ≤1e-12 relative. Each path is
// individually deterministic at every GOMAXPROCS.

import (
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/mat"
)

// dict is the sensing dictionary Φ̃ = Φ(L,:) together with the full basis
// Φ it was sampled from. m is the measurement count, n the coefficient
// count, and signalDim the full signal length N (== n for the square
// orthonormal operators; dense matrices may be rectangular).
type dict interface {
	rows() int
	cols() int
	signalDim() int
	// corrT computes dst = Φ̃ᵀ r (length n) from a residual at the sensors.
	corrT(dst, r []float64) error
	// col extracts dst = Φ̃ e_j (length m), the j-th dictionary column.
	col(dst []float64, j int) error
	// colNorms fills dst[j] = ‖Φ̃ e_j‖₂ for every column.
	colNorms(dst []float64) error
	// predict computes dst = Φ̃ α (length m) from a full-length coefficient
	// vector.
	predict(dst, alpha []float64) error
	// analyzeFull computes dst = Φᵀ e (length n) from a full-length signal —
	// the CHS step-(b) scan.
	analyzeFull(dst, e []float64) error
	// subInto fills the dense m×len(idx) matrix of the selected dictionary
	// columns — the small least-squares systems every decoder ends with.
	subInto(dst *mat.Matrix, idx []int) error
	// synth reconstructs the full signal Φ·α from support-packed
	// coefficients.
	synth(support []int, coef []float64) []float64
	// residualSq returns ‖y − Φ̃_J coef‖² given the already-synthesized xhat.
	residualSq(support []int, coef, y, xhat []float64) float64
}

// dictFor builds the decode dictionary for an operator at the given sensor
// locations. A *basis.MatrixOp routes to the dense reference dictionary:
// matrix-backed operators (learned bases, non-dyadic fallbacks, a dense
// basis wrapped with basis.FromMatrix) decode on the exact mat kernels.
func dictFor(op basis.Operator, locs []int) (dict, error) {
	if mo, ok := op.(*basis.MatrixOp); ok {
		return denseDictFor(mo.Matrix(), locs)
	}
	// Everything else — including a Separable2D over dense factors — runs
	// matrix-free: applying the factors costs O(n·(h+w)) against the Kron
	// product's O(n²).
	return newOpDict(op, locs)
}

// denseDictFor builds the reference dictionary: Φ̃ gathered once through
// the memoized sensingMatrix path.
func denseDictFor(phi *mat.Matrix, locs []int) (dict, error) {
	a, err := sensingMatrix(phi, locs)
	if err != nil {
		return nil, err
	}
	return &denseDict{phi: phi, a: a}, nil
}

// --- dense reference path ------------------------------------------------------

type denseDict struct {
	phi *mat.Matrix // full basis, N×n
	a   *mat.Matrix // sensing matrix Φ(L,:), m×n
}

func (d *denseDict) rows() int      { return d.a.Rows }
func (d *denseDict) cols() int      { return d.a.Cols }
func (d *denseDict) signalDim() int { return d.phi.Rows }

func (d *denseDict) corrT(dst, r []float64) error {
	return mat.MulTVecInto(dst, d.a, r)
}

func (d *denseDict) col(dst []float64, j int) error {
	n := d.a.Cols
	for i := 0; i < d.a.Rows; i++ {
		dst[i] = d.a.Data[i*n+j]
	}
	return nil
}

func (d *denseDict) colNorms(dst []float64) error {
	n := d.a.Cols
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < d.a.Rows; i++ {
		row := d.a.Data[i*n : (i+1)*n]
		for j, v := range row {
			dst[j] += v * v
		}
	}
	for j, s := range dst {
		dst[j] = math.Sqrt(s)
	}
	return nil
}

func (d *denseDict) predict(dst, alpha []float64) error {
	return mat.MulVecInto(dst, d.a, alpha)
}

func (d *denseDict) analyzeFull(dst, e []float64) error {
	return mat.MulTVecInto(dst, d.phi, e)
}

func (d *denseDict) subInto(dst *mat.Matrix, idx []int) error {
	return mat.SelectColsInto(dst, d.a, idx)
}

func (d *denseDict) synth(support []int, coef []float64) []float64 {
	xhat := make([]float64, d.phi.Rows)
	for s, j := range support {
		cj := coef[s]
		if cj == 0 {
			continue
		}
		for i := 0; i < d.phi.Rows; i++ {
			xhat[i] += d.phi.Data[i*d.phi.Cols+j] * cj
		}
	}
	return xhat
}

func (d *denseDict) residualSq(support []int, coef, y, _ []float64) float64 {
	res := 0.0
	for i := 0; i < d.a.Rows; i++ {
		pred := 0.0
		for s, j := range support {
			pred += d.a.Data[i*d.a.Cols+j] * coef[s]
		}
		diff := y[i] - pred
		res += diff * diff
	}
	return res
}

// --- matrix-free path ----------------------------------------------------------

type opDict struct {
	op    basis.Operator
	locs  []int
	n     int
	full  []float64 // length-n scatter buffer, kept all-zero between uses
	out   []float64 // length-n transform output buffer
	norms []float64 // lazily computed column norms (OMP only)

	// colJs/colBuf memoize gathered columns for subInto over the lifetime
	// of one decode: IHT/CoSaMP and the GLS refit re-request every support
	// column on each refit, so caching turns O(iters·|J|) synthesis
	// transforms into one per distinct column. Support stays small (tens
	// of atoms), so a linear scan over admission order beats a map — no
	// hashing, no map allocation on the decode hot path. Entries are
	// immutable once stored.
	colJs  []int
	colBuf [][]float64
	// sepU/sepV hold the factor columns when op is a Separable2D.
	sepU, sepV []float64
	// scat is op's scattered analysis when it has one (basis.Separable2D).
	scat scatteredAnalyzer
}

// scatteredAnalyzer is an operator that analyzes a signal given only at
// some locations: dst = Φᵀx for x = vals at locs (accumulating duplicates),
// zero elsewhere.
type scatteredAnalyzer interface {
	ApplyTransposeScattered(dst []float64, locs []int, vals []float64)
}

func newOpDict(op basis.Operator, locs []int) (*opDict, error) {
	d := new(opDict)
	if err := d.reset(op, locs); err != nil {
		return nil, err
	}
	return d, nil
}

// reset points d at op sampled at locs, dropping the memoized columns and
// norms. The full, out and factor-column buffers keep their storage when
// it is large enough; full is zeroed, as corrT, fillCol and synth expect.
// On error d is unchanged.
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
	*d = opDict{
		op: op, locs: locs, n: n,
		full: resized(d.full, n),
		out:  resized(d.out, n),
		sepU: d.sepU, sepV: d.sepV,
		scat: scat,
	}
	clear(d.full)
	return nil
}

func (d *opDict) rows() int      { return len(d.locs) }
func (d *opDict) cols() int      { return d.n }
func (d *opDict) signalDim() int { return d.n }

// corrT scatters the residual onto the grid (zeros elsewhere — the ZeroFill
// embedding, under which Φ̃ᵀr = Φᵀ(scatter r)) and runs one analysis; an
// operator with a scattered analysis takes the M values directly.
// Duplicate locations accumulate, matching the dense row-sum.
func (d *opDict) corrT(dst, r []float64) error {
	if d.scat != nil {
		d.scat.ApplyTransposeScattered(dst, d.locs, r)
		return nil
	}
	for i, l := range d.locs {
		d.full[l] += r[i]
	}
	d.op.ApplyTranspose(dst, d.full)
	for _, l := range d.locs {
		d.full[l] = 0
	}
	return nil
}

// col synthesizes basis vector j and gathers it at the sensors straight
// into dst. It does not memoize: CHS, OMP and warm-start seeding fold
// each column into a QR factorization that keeps its own copy.
func (d *opDict) col(dst []float64, j int) error {
	if j < 0 || j >= d.n {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadSupport, j, d.n)
	}
	d.fillCol(dst, j)
	return nil
}

// gatherCol returns the memoized gathered column Φ̃ e_j — the refits of
// subInto request the same support columns again and again.
func (d *opDict) gatherCol(j int) ([]float64, error) {
	if j < 0 || j >= d.n {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrBadSupport, j, d.n)
	}
	for s, cj := range d.colJs {
		if cj == j {
			return d.colBuf[s], nil
		}
	}
	c := make([]float64, len(d.locs))
	d.fillCol(c, j)
	d.colJs = append(d.colJs, j)
	d.colBuf = append(d.colBuf, c)
	return c, nil
}

// fillCol writes Φ̃ e_j into dst (length m).
func (d *opDict) fillCol(dst []float64, j int) {
	if sep, ok := d.op.(*basis.Separable2D); ok {
		d.sepCol(sep, dst, j)
	} else if ea, ok := d.op.(basis.EntryAccessor); ok {
		// Closed-form entries: the column restricted to the m sampled
		// rows costs O(m), not one full synthesis.
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
// outer product of the 1-D factor columns, so it costs two small factor
// transforms and an O(M) gather instead of one full n-point synthesis.
func (d *opDict) sepCol(sep *basis.Separable2D, dst []float64, j int) {
	rowOp, colOp := sep.Factors()
	h, w := rowOp.Dim(), colOp.Dim()
	d.sepU, d.sepV = resized(d.sepU, h), resized(d.sepV, w)
	jr, jc := j%h, j/h
	d.full[jr] = 1
	rowOp.Apply(d.sepU, d.full[:h])
	d.full[jr] = 0
	d.full[jc] = 1
	colOp.Apply(d.sepV, d.full[:w])
	d.full[jc] = 0
	for i, l := range d.locs {
		dst[i] = d.sepU[l%h] * d.sepV[l/h]
	}
}

// colNorms costs one analysis per measurement (row locs[i] of Φ is
// Φᵀe_{locs[i]}) — O(M·n log n), done once per decode and only by OMP.
func (d *opDict) colNorms(dst []float64) error {
	for j := range dst {
		dst[j] = 0
	}
	// Column norms of the restricted dictionary are row norms of Φ over the
	// sampled locations. Closed-form row access (basis.RowAccessor) makes
	// each row O(n); the analysis fallback pays one full transform per
	// measurement, which dominates OMP setup at small n.
	if ra, ok := d.op.(basis.RowAccessor); ok {
		for _, l := range d.locs {
			ra.RowInto(d.out, l)
			for j, v := range d.out {
				dst[j] += v * v
			}
		}
	} else {
		for _, l := range d.locs {
			d.full[l] = 1
			d.op.ApplyTranspose(d.out, d.full)
			d.full[l] = 0
			for j, v := range d.out {
				dst[j] += v * v
			}
		}
	}
	for j, s := range dst {
		dst[j] = math.Sqrt(s)
	}
	return nil
}

func (d *opDict) predict(dst, alpha []float64) error {
	d.op.Apply(d.out, alpha)
	for i, l := range d.locs {
		dst[i] = d.out[l]
	}
	return nil
}

func (d *opDict) analyzeFull(dst, e []float64) error {
	d.op.ApplyTranspose(dst, e)
	return nil
}

// subInto builds the small m×|idx| system column by column — |idx| fast
// synthesizes, never a dense slice of Φ.
func (d *opDict) subInto(dst *mat.Matrix, idx []int) error {
	m := len(d.locs)
	if dst.Rows != m || dst.Cols != len(idx) {
		return fmt.Errorf("%w: submatrix %dx%d, want %dx%d", mat.ErrShape, dst.Rows, dst.Cols, m, len(idx))
	}
	for c, j := range idx {
		cj, err := d.gatherCol(j)
		if err != nil {
			return err
		}
		for i := range d.locs {
			dst.Data[i*dst.Cols+c] = cj[i]
		}
	}
	return nil
}

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

// residualSq reads the sensor predictions straight off the synthesized
// signal: (Φ̃_J coef)_i = xhat[locs[i]] by construction.
func (d *opDict) residualSq(_ []int, _, y, xhat []float64) float64 {
	res := 0.0
	for i, l := range d.locs {
		diff := y[i] - xhat[l]
		res += diff * diff
	}
	return res
}

// --- shared result packing -----------------------------------------------------

// packResultDict assembles the Result every decoder returns: full-length
// alpha, synthesized xhat, and the sensor-residual norm.
func packResultDict(d dict, support []int, coef, y []float64, iters int) (*Result, error) {
	alpha := make([]float64, d.cols())
	for s, j := range support {
		alpha[j] = coef[s]
	}
	xhat := d.synth(support, coef)
	res := d.residualSq(support, coef, y, xhat)
	return &Result{
		Alpha: alpha, Support: support, Xhat: xhat,
		Residual: math.Sqrt(res), Iterations: iters,
	}, nil
}

// zeroResult is the empty-support decode outcome.
func zeroResult(d dict, y []float64, iters int) *Result {
	return &Result{
		Alpha: make([]float64, d.cols()), Support: nil,
		Xhat: make([]float64, d.signalDim()), Residual: mat.Norm2(y), Iterations: iters,
	}
}
