package mat

import (
	"fmt"
	"math"
	"math/bits"
)

// Elementwise kernels of the decode: the transforms' butterflies
// (Butterfly, Radix4) and spectrum separation (Separate), the scattered
// analysis's row accumulation (ScatterAxpyPair), the
// Gram–Schmidt update v ← v − Q·h (SubMul, SubMul4) and step (c)'s scan
// (ArgmaxAbs). Every element is computed independently of its neighbours,
// so on amd64 with AVX2 the bulk runs four lanes at a time in assembly,
// one VMULPD/VADDPD/VSUBPD per scalar operation of the loops below,
// operands in the same order and nothing fused or reassociated: the
// results are the scalar code's to the bit (a NaN is a NaN on both paths;
// its payload is not part of the contract). Everywhere else, and for the
// last len%4 elements, the Go loops run. useAVX2 is decided once at
// start-up from CPUID and XGETBV; tests clear it to reach the Go loops.
// No kernel's output slices may overlap another operand.

// useAVX2 selects the vector bodies.
var useAVX2 = haveAVX2()

// Butterfly runs the radix-2 butterfly with twiddle w = wre + j·wim on
// every lane p < len(rk): t = w·(rj[p] + j·ij[p]), then (rk, ik)[p] += t
// and (rj, ij)[p] = (rk, ik)[p] − t. ik, rj and ij must be at least as long
// as rk.
func Butterfly(rk, ik, rj, ij []float64, wre, wim float64) {
	n := len(rk)
	ik, rj, ij = ik[:n], rj[:n], ij[:n]
	if m := n &^ 3; useAVX2 && m > 0 {
		butterflyAVX2(rk[:m], ik[:m], rj[:m], ij[:m], wre, wim)
		if m == n {
			return
		}
		rk, ik, rj, ij = rk[m:], ik[m:], rj[m:], ij[m:]
	}
	butterflyGo(rk, ik, rj, ij, wre, wim)
}

func butterflyGo(rk, ik, rj, ij []float64, wre, wim float64) {
	ik, rj, ij = ik[:len(rk)], rj[:len(rk)], ij[:len(rk)]
	for v := range rk {
		tre := rj[v]*wre - ij[v]*wim
		tim := rj[v]*wim + ij[v]*wre
		rj[v] = rk[v] - tre
		ij[v] = ik[v] - tim
		rk[v] += tre
		ik[v] += tim
	}
}

// Radix4 runs the multiply-free radix-4 butterfly of an FFT's first two
// stages on every lane p < len(r0): with x_q = (r_q + j·i_q)[p] it leaves
// x₀+x₁+(x₂+x₃), x₀−x₁+d, x₀+x₁−(x₂+x₃) and x₀−x₁−d in x₀..x₃, where
// d = ∓j·(x₂−x₃) is j·(x₂−x₃) scaled by sign (−1 forward, +1 inverse).
// The other seven slices must be at least as long as r0.
func Radix4(r0, i0, r1, i1, r2, i2, r3, i3 []float64, sign float64) {
	n := len(r0)
	i0, r1, i1, r2, i2, r3, i3 = i0[:n], r1[:n], i1[:n], r2[:n], i2[:n], r3[:n], i3[:n]
	if m := n &^ 3; useAVX2 && m > 0 {
		radix4AVX2(r0[:m], i0[:m], r1[:m], i1[:m], r2[:m], i2[:m], r3[:m], i3[:m], sign)
		if m == n {
			return
		}
		r0, i0, r1, i1, r2, i2, r3, i3 = r0[m:], i0[m:], r1[m:], i1[m:], r2[m:], i2[m:], r3[m:], i3[m:]
	}
	radix4Go(r0, i0, r1, i1, r2, i2, r3, i3, sign)
}

func radix4Go(r0, i0, r1, i1, r2, i2, r3, i3 []float64, sign float64) {
	n := len(r0)
	i0, r1, i1, r2, i2, r3, i3 = i0[:n], r1[:n], i1[:n], r2[:n], i2[:n], r3[:n], i3[:n]
	for v := range r0 {
		ar, ai := r0[v]+r1[v], i0[v]+i1[v]
		br, bi := r0[v]-r1[v], i0[v]-i1[v]
		cr, ci := r2[v]+r3[v], i2[v]+i3[v]
		dr, di := -sign*(i2[v]-i3[v]), sign*(r2[v]-r3[v])
		r0[v], i0[v] = ar+cr, ai+ci
		r1[v], i1[v] = br+dr, bi+di
		r2[v], i2[v] = ar-cr, ai-ci
		r3[v], i3[v] = br-dr, bi-di
	}
}

// Separate writes two spectra of a paired FFT, interleaved: with bins k and
// j = n−k in (rk, ik) and (rj, ij), it computes out[2p] = c·(rk[p]+rj[p]) +
// s·(ik[p]−ij[p]) and out[2p+1] = c·(ik[p]+ij[p]) − s·(rk[p]−rj[p]) for
// every p < len(rk). out must hold 2·len(rk) values and ik, rj, ij at
// least len(rk); rk may be rj and ik may be ij.
func Separate(out, rk, ik, rj, ij []float64, c, s float64) {
	n := len(rk)
	out, ik, rj, ij = out[:2*n], ik[:n], rj[:n], ij[:n]
	if m := n &^ 3; useAVX2 && m > 0 {
		separateAVX2(out[:2*m], rk[:m], ik[:m], rj[:m], ij[:m], c, s)
		if m == n {
			return
		}
		out, rk, ik, rj, ij = out[2*m:], rk[m:], ik[m:], rj[m:], ij[m:]
	}
	separateGo(out, rk, ik, rj, ij, c, s)
}

func separateGo(out, rk, ik, rj, ij []float64, c, s float64) {
	out, ik, rj, ij = out[:2*len(rk)], ik[:len(rk)], rj[:len(rk)], ij[:len(rk)]
	for p := range rk {
		out[2*p] = c*(rk[p]+rj[p]) + s*(ik[p]-ij[p])
		out[2*p+1] = c*(ik[p]+ij[p]) - s*(rk[p]-rj[p])
	}
}

// ScatterAxpyPair accumulates scaled table rows at scattered locations,
// the scattered analysis's front end, in one call. tab holds h rows of h
// values, h a power of two; location l is row r = l mod h of block
// b = l div h, and adds v times the first half of tab's row r to ya and v
// times the second half to yb, both at offset slot[b]·h/2:
//
//	ya[slot[b]·h/2 + p] += v·tab[r·h + p]
//	yb[slot[b]·h/2 + p] += v·tab[r·h + h/2 + p]   for p < h/2,
//
// for each (l, v) of (locs, vals) in order, so each element's additions
// keep the locations' order. It panics unless every location lies in
// [0, len(slot)·h) and every slot row lies inside ya and yb.
func ScatterAxpyPair(ya, yb, tab []float64, h int, slot, locs []int, vals []float64) {
	if h < 2 || h&(h-1) != 0 || len(tab) < h*h || len(vals) != len(locs) {
		panic(fmt.Sprintf("mat: ScatterAxpyPair row length %d, table %d, %d locations for %d values", h, len(tab), len(locs), len(vals)))
	}
	half := h / 2
	rows := uint(min(len(ya), len(yb)) / half)
	for _, s := range slot {
		if uint(s) >= rows {
			panic(fmt.Sprintf("mat: ScatterAxpyPair slot row %d outside %d rows", s, rows))
		}
	}
	limit := uint(len(slot) * h)
	for _, l := range locs {
		if uint(l) >= limit {
			panic(fmt.Sprintf("mat: ScatterAxpyPair location %d outside [0, %d)", l, limit))
		}
	}
	// half is a power of two, so it is either below four (all tail) or a
	// multiple of four (no tail).
	if useAVX2 && half >= 4 {
		scatterAxpyPairAVX2(ya, yb, tab, uint(bits.TrailingZeros(uint(h))), slot, locs, vals)
		return
	}
	scatterAxpyPairGo(ya, yb, tab, h, slot, locs, vals)
}

func scatterAxpyPairGo(ya, yb, tab []float64, h int, slot, locs []int, vals []float64) {
	half := h / 2
	shift := bits.TrailingZeros(uint(h))
	for i, l := range locs {
		base := slot[l>>shift] * half
		row := tab[(l&(h-1))*h:][:h]
		xa, xb := row[:half], row[half:]
		ra, rb := ya[base:][:half], yb[base:][:half]
		v := vals[i]
		for p := range ra {
			ra[p] += v * xa[p]
			rb[p] += v * xb[p]
		}
	}
}

// SubMul computes v[i] −= h·q[i] for every i < len(v). q must be at least
// as long as v.
func SubMul(v, q []float64, h float64) {
	n := len(v)
	q = q[:n]
	if m := n &^ 3; useAVX2 && m > 0 {
		subMulAVX2(v[:m], q[:m], h)
		if m == n {
			return
		}
		v, q = v[m:], q[m:]
	}
	subMulGo(v, q, h)
}

func subMulGo(v, q []float64, h float64) {
	q = q[:len(v)]
	for i, x := range q {
		v[i] -= h * x
	}
}

// SubMul4 computes v[i] −= h0·q0[i] + h1·q1[i] + h2·q2[i] + h3·q3[i], the
// sum taken left to right, for every i < len(v): one Gram–Schmidt update
// against four columns. q0..q3 must be at least as long as v.
func SubMul4(v, q0, q1, q2, q3 []float64, h0, h1, h2, h3 float64) {
	n := len(v)
	q0, q1, q2, q3 = q0[:n], q1[:n], q2[:n], q3[:n]
	if m := n &^ 3; useAVX2 && m > 0 {
		subMul4AVX2(v[:m], q0[:m], q1[:m], q2[:m], q3[:m], h0, h1, h2, h3)
		if m == n {
			return
		}
		v, q0, q1, q2, q3 = v[m:], q0[m:], q1[m:], q2[m:], q3[m:]
	}
	subMul4Go(v, q0, q1, q2, q3, h0, h1, h2, h3)
}

func subMul4Go(v, q0, q1, q2, q3 []float64, h0, h1, h2, h3 float64) {
	q0, q1, q2, q3 = q0[:len(v)], q1[:len(v)], q2[:len(v)], q3[:len(v)]
	for i, x := range q0 {
		v[i] -= h0*x + h1*q1[i] + h2*q2[i] + h3*q3[i]
	}
}

// ArgmaxAbs returns the lowest index j of the largest |a[j]|, or −1 when
// no |a[j]| exceeds 0 (a NaN never wins). It keeps four running maxima,
// one per index class mod 4 (the last len%4 entries join the first
// class), so four compare chains run side by side; each holds its class's
// lowest index of its largest value, and merging them by (value, lowest
// index) gives the sequential scan's answer. The vector body keeps sixteen
// classes in four registers, merges them into the four classes mod 4 by
// the same rule, and the Go loop carries on from there.
func ArgmaxAbs(a []float64) int {
	best := [4]float64{}
	at := [4]int{-1, -1, -1, -1}
	start := 0
	if m := len(a) &^ 15; useAVX2 && m > 0 {
		argmaxAbsAVX2(a[:m], &best, &at)
		start = m
	}
	argmaxAbsClasses(a, start, &best, &at)
	b0, j0 := best[0], at[0]
	for j := len(a) &^ 3; j < len(a); j++ {
		if c := math.Abs(a[j]); c > b0 {
			b0, j0 = c, j
		}
	}
	// A class that found nothing holds (0, −1) and never displaces one
	// that did, whose value is above 0.
	for q := 1; q < 4; q++ {
		if best[q] > b0 || best[q] == b0 && at[q] < j0 {
			b0, j0 = best[q], at[q]
		}
	}
	return j0
}

// argmaxAbsClasses carries the four classes' running maxima over a's
// blocks of four from start, a multiple of 4, on.
func argmaxAbsClasses(a []float64, start int, best *[4]float64, at *[4]int) {
	b0, b1, b2, b3 := best[0], best[1], best[2], best[3]
	j0, j1, j2, j3 := at[0], at[1], at[2], at[3]
	n := len(a) &^ 3
	for j := start; j < n; j += 4 {
		q := a[j : j+4 : j+4]
		if c := math.Abs(q[0]); c > b0 {
			b0, j0 = c, j
		}
		if c := math.Abs(q[1]); c > b1 {
			b1, j1 = c, j+1
		}
		if c := math.Abs(q[2]); c > b2 {
			b2, j2 = c, j+2
		}
		if c := math.Abs(q[3]); c > b3 {
			b3, j3 = c, j+3
		}
	}
	*best = [4]float64{b0, b1, b2, b3}
	*at = [4]int{j0, j1, j2, j3}
}
