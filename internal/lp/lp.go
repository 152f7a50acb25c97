// Package lp implements a dense two-phase primal simplex solver for linear
// programs in standard form:
//
//	minimize    c·x
//	subject to  A x = b,  x ≥ 0.
//
// It exists so the middleware's L1 basis-pursuit decoder (paper Eq. 9–10)
// can be solved with the standard linear-programming reformulation using
// only the standard library. The solver uses Bland's rule to guarantee
// termination (no cycling) and is sized for the few-hundred-variable
// programs that arise from per-zone sparse recovery.
package lp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Solver failure modes.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
	ErrShape      = errors.New("lp: dimension mismatch")
)

// Problem is a standard-form linear program: minimize C·x subject to
// A x = B, x ≥ 0. A is dense row-major with Rows*Cols entries.
type Problem struct {
	C    []float64 // length n
	A    []float64 // m×n row-major
	B    []float64 // length m
	Rows int       // m
	Cols int       // n
}

// Result holds the optimum found by Solve.
type Result struct {
	X          []float64 // optimal point, length n
	Objective  float64   // c·x at the optimum
	Iterations int       // total simplex pivots across both phases
}

const pivotTol = 1e-9

// Solve runs two-phase simplex on p. Rows with negative b are negated
// first so phase 1 can start from the artificial basis.
func Solve(p Problem) (*Result, error) {
	m, n := p.Rows, p.Cols
	if len(p.A) != m*n || len(p.B) != m || len(p.C) != n {
		return nil, fmt.Errorf("%w: A=%d (want %d), b=%d (want %d), c=%d (want %d)",
			ErrShape, len(p.A), m*n, len(p.B), m, len(p.C), n)
	}
	// Working tableau: m rows × (n + m artificials + 1 rhs).
	width := n + m + 1
	tab := make([]float64, m*width)
	for i := 0; i < m; i++ {
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		for j := 0; j < n; j++ {
			tab[i*width+j] = sign * p.A[i*n+j]
		}
		tab[i*width+n+i] = 1 // artificial
		tab[i*width+n+m] = sign * p.B[i]
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	iters := 0

	// Phase 1: minimize sum of artificials.
	phase1 := make([]float64, n+m)
	for j := n; j < n+m; j++ {
		phase1[j] = 1
	}
	it, err := simplex(tab, basis, phase1, m, width)
	iters += it
	if err != nil {
		return nil, err
	}
	if obj := objective(tab, basis, phase1, m, width); obj > 1e-7 {
		return nil, ErrInfeasible
	}
	// Drive any artificial still in the basis out (degenerate case) or
	// confirm its row is zero across original columns.
	for i := 0; i < m; i++ {
		if basis[i] < n {
			continue
		}
		pivoted := false
		for j := 0; j < n; j++ {
			if math.Abs(tab[i*width+j]) > pivotTol {
				pivot(tab, basis, m, width, i, j)
				iters++
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant constraint: the artificial stays basic at value 0;
			// harmless for phase 2 as long as its column is never re-entered
			// (phase-2 costs for artificial columns are +inf below).
			continue
		}
	}

	// Phase 2: original objective; forbid artificial columns.
	phase2 := make([]float64, n+m)
	copy(phase2, p.C)
	for j := n; j < n+m; j++ {
		phase2[j] = math.Inf(1)
	}
	it, err = simplex(tab, basis, phase2, m, width)
	iters += it
	if err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i, bi := range basis {
		if bi < n {
			x[bi] = tab[i*width+n+m]
		}
	}
	resolveBasic(p, basis, x)
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return &Result{X: x, Objective: obj, Iterations: iters}, nil
}

// resolveBasic recomputes the basic variables of x from the original data,
// A_B x_B = b. The tableau's right-hand side drifts over many pivots — by
// ~1e-8 on a 64-row BPDN program — while one solve on the final basis is
// accurate to its conditioning. When A_B is singular the tableau values
// stand; a tiny negative from the solve is clamped to keep x ≥ 0.
func resolveBasic(p Problem, basis []int, x []float64) {
	m, n := p.Rows, p.Cols
	ab := mat.New(m, m)
	for c, bj := range basis {
		for i := 0; i < m; i++ {
			if bj < n {
				ab.Data[i*m+c] = p.A[i*n+bj]
			} else if bj-n == i {
				ab.Data[i*m+c] = 1
			}
		}
	}
	xb, err := mat.LeastSquares(ab, p.B)
	if err != nil {
		return
	}
	for c, bj := range basis {
		if bj < n {
			x[bj] = max(xb[c], 0)
		}
	}
}

// objective returns c·x for the current basic solution.
func objective(tab []float64, basis []int, c []float64, m, width int) float64 {
	obj := 0.0
	for i, bi := range basis {
		obj += c[bi] * tab[i*width+width-1]
	}
	return obj
}

// simplex runs primal simplex pivots with Bland's rule until optimality.
// It returns the number of pivots performed.
func simplex(tab []float64, basis []int, c []float64, m, width int) (int, error) {
	ncols := width - 1
	iters := 0
	// y holds the simplex multipliers implicitly via reduced cost scan.
	for {
		// Compute reduced costs: rc_j = c_j - c_B · column_j. Pick the
		// lowest-index column with rc < -tol (Bland's rule).
		enter := -1
		for j := 0; j < ncols; j++ {
			if math.IsInf(c[j], 1) {
				continue // artificial barred in phase 2
			}
			if isBasic(basis, j) {
				continue
			}
			rc := c[j]
			for i := 0; i < m; i++ {
				cb := c[basis[i]]
				if cb != 0 && !math.IsInf(cb, 1) {
					rc -= cb * tab[i*width+j]
				}
			}
			if rc < -1e-9 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return iters, nil // optimal
		}
		// Ratio test with Bland tie-break on basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i*width+enter]
			if a <= pivotTol {
				continue
			}
			ratio := tab[i*width+width-1] / a
			if ratio < bestRatio-1e-12 ||
				(math.Abs(ratio-bestRatio) <= 1e-12 && (leave < 0 || basis[i] < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			return iters, ErrUnbounded
		}
		pivot(tab, basis, m, width, leave, enter)
		iters++
		if iters > 200000 {
			return iters, errors.New("lp: iteration limit exceeded")
		}
	}
}

func isBasic(basis []int, j int) bool {
	for _, b := range basis {
		if b == j {
			return true
		}
	}
	return false
}

// pivot makes column `col` basic in row `row`.
func pivot(tab []float64, basis []int, m, width, row, col int) {
	p := tab[row*width+col]
	inv := 1 / p
	for j := 0; j < width; j++ {
		tab[row*width+j] *= inv
	}
	tab[row*width+col] = 1 // exact
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		f := tab[i*width+col]
		if f == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			tab[i*width+j] -= f * tab[row*width+j]
		}
		tab[i*width+col] = 0 // exact
	}
	basis[row] = col
}
