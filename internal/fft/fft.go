// Package fft provides the radix-2 fast Fourier transform core behind the
// matrix-free basis operators (basis.Operator): an iterative, in-place
// Cooley–Tukey butterfly with precomputed twiddle tables and bit-reversal
// permutation, O(n log n) where the dense bases pay O(n²).
//
// Determinism contract (DESIGN.md §5, §9): the butterfly schedule is a fixed
// function of n — stages in increasing span order, blocks left to right,
// twiddles from a table computed once per plan — so a transform of the same
// input is bit-identical on every run and at every GOMAXPROCS. Transforms
// never spawn goroutines and never allocate: all state lives in the plan and
// the caller's buffers.
package fft

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
)

// Plan holds the precomputed tables for transforms of one size. Plans are
// immutable after construction and safe for concurrent use; obtain shared
// ones through PlanFor.
type Plan struct {
	n   int
	rev []int     // bit-reversal permutation
	cos []float64 // cos(2πj/n), j = 0..n/2-1
	sin []float64 // sin(2πj/n), j = 0..n/2-1
}

// IsPow2 reports whether n is a positive power of two (the sizes the
// radix-2 core handles; other sizes use the dense reference path).
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NewPlan builds the tables for size-n transforms. n must be a positive
// power of two.
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fft: size %d is not a power of two", n)
	}
	p := &Plan{
		n:   n,
		rev: make([]int, n),
		cos: make([]float64, n/2),
		sin: make([]float64, n/2),
	}
	// Bit-reversal permutation via the incremental carry trick.
	for i, j := 0, 0; i < n; i++ {
		p.rev[i] = j
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j &^= bit
		}
		j |= bit
	}
	for j := 0; j < n/2; j++ {
		s, c := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		p.cos[j] = c
		p.sin[j] = s
	}
	return p, nil
}

// plan cache: transforms of the same size share one table set.
var (
	planMu sync.RWMutex
	plans  = make(map[int]*Plan)
)

// PlanFor returns the shared plan for size n, building and memoizing it on
// first use. n must be a positive power of two.
func PlanFor(n int) (*Plan, error) {
	planMu.RLock()
	p, ok := plans[n]
	planMu.RUnlock()
	if ok {
		return p, nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	planMu.Lock()
	plans[n] = p
	planMu.Unlock()
	return p, nil
}

// Forward computes the in-place DFT X[k] = Σᵢ x[i]·e^{-2πi·ik/n} of the
// complex signal (re, im). Both slices must have length n.
func (p *Plan) Forward(re, im []float64) {
	p.transform(re, im, false)
}

// Inverse computes the in-place inverse DFT x[i] = (1/n)·Σₖ X[k]·e^{+2πi·ik/n}.
func (p *Plan) Inverse(re, im []float64) {
	p.transform(re, im, true)
	inv := 1 / float64(p.n)
	for i := range re {
		re[i] *= inv
		im[i] *= inv
	}
}

// transform bit-reverses the input in place and runs the butterflies.
func (p *Plan) transform(re, im []float64, inverse bool) {
	n := p.n
	if len(re) != n || len(im) != n {
		panic(fmt.Sprintf("fft: buffer length %d/%d, want %d", len(re), len(im), n))
	}
	for i, j := range p.rev {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	p.Butterflies(re, im, inverse)
}

// Butterflies runs the in-place radix-2 butterfly stages on input the caller
// has already placed in bit-reversed order (w[i] = x[rev(i)]), leaving the
// unscaled DFT — forward, or inverse without the 1/n — in natural order. It
// is the core behind Forward/Inverse for callers that fold the permutation
// into a gather of their own. The first two stages, whose twiddles are 1 and
// ∓i, run as one multiply-free radix-4 pass. The loop bodies perform no
// allocation and no calls; the schedule is a pure function of n.
func (p *Plan) Butterflies(re, im []float64, inverse bool) {
	n := p.n
	if len(re) != n || len(im) != n {
		panic(fmt.Sprintf("fft: buffer length %d/%d, want %d", len(re), len(im), n))
	}
	// The direction only flips the twiddle's imaginary sign; folding it
	// into a constant here keeps the innermost butterfly branch-free.
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	if n == 2 {
		re[0], re[1] = re[0]+re[1], re[0]-re[1]
		im[0], im[1] = im[0]+im[1], im[0]-im[1]
		return
	}
	for s := 0; s+3 < n; s += 4 {
		ar, ai := re[s]+re[s+1], im[s]+im[s+1]
		br, bi := re[s]-re[s+1], im[s]-im[s+1]
		cr, ci := re[s+2]+re[s+3], im[s+2]+im[s+3]
		dr, di := -sign*(im[s+2]-im[s+3]), sign*(re[s+2]-re[s+3]) // ∓i·(x₂−x₃)
		re[s], im[s] = ar+cr, ai+ci
		re[s+1], im[s+1] = br+dr, bi+di
		re[s+2], im[s+2] = ar-cr, ai-ci
		re[s+3], im[s+3] = br-dr, bi-di
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				wre := p.cos[tw]
				wim := sign * p.sin[tw]
				j := k + half
				tre := re[j]*wre - im[j]*wim
				tim := re[j]*wim + im[j]*wre
				re[j] = re[k] - tre
				im[j] = im[k] - tim
				re[k] += tre
				im[k] += tim
				tw += step
			}
		}
	}
}

// BatchButterflies runs the butterflies of Butterflies over b interleaved
// vectors at once: element i of vector v sits at i*b+v of re and im, each of
// length n*b. Every vector sees exactly the schedule and the per-element
// expressions of a Butterflies call of its own, so the results are
// bit-identical to b separate calls; the loops differ only in order — the
// innermost one runs over the b contiguous elements that share a twiddle,
// which is what makes a batch of strided columns cheaper than b gathers.
// That innermost loop is mat.Radix4 for the first two stages and
// mat.Butterfly for each later one, elementwise kernels with a vector body
// where the CPU has one (same bits, see package mat).
func (p *Plan) BatchButterflies(re, im []float64, b int, inverse bool) {
	n := p.n
	if b < 0 || len(re) != n*b || len(im) != n*b {
		panic(fmt.Sprintf("fft: batch buffer length %d/%d, want %d×%d", len(re), len(im), n, b))
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	if n == 2 {
		r0, r1 := re[:b], re[b:][:b]
		i0, i1 := im[:b], im[b:][:b]
		for v := range r0 {
			r0[v], r1[v] = r0[v]+r1[v], r0[v]-r1[v]
			i0[v], i1[v] = i0[v]+i1[v], i0[v]-i1[v]
		}
		return
	}
	for s := 0; s+3 < n; s += 4 {
		mat.Radix4(re[s*b:][:b], im[s*b:][:b], re[(s+1)*b:][:b], im[(s+1)*b:][:b],
			re[(s+2)*b:][:b], im[(s+2)*b:][:b], re[(s+3)*b:][:b], im[(s+3)*b:][:b], sign)
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				wre := p.cos[tw]
				wim := sign * p.sin[tw]
				j := k + half
				mat.Butterfly(re[k*b:][:b], im[k*b:][:b], re[j*b:][:b], im[j*b:][:b], wre, wim)
				tw += step
			}
		}
	}
}

// Naive computes the DFT by direct O(n²) summation — the reference the
// property tests compare the butterfly against. Any length is accepted.
func Naive(re, im []float64) ([]float64, []float64) {
	n := len(re)
	outRe := make([]float64, n)
	outIm := make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si float64
		for i := 0; i < n; i++ {
			s, c := math.Sincos(2 * math.Pi * float64(k) * float64(i) / float64(n))
			sr += re[i]*c + im[i]*s
			si += im[i]*c - re[i]*s
		}
		outRe[k] = sr
		outIm[k] = si
	}
	return outRe, outIm
}
