package mat

// Elementwise kernels of the decode's transforms: the scattered analysis's
// row accumulation (AxpyPair) and the batched FFT's butterflies (Butterfly,
// Radix4). Every element is computed independently of its neighbours, so
// on amd64 with AVX2 the bulk runs four lanes at a time in assembly, one
// VMULPD/VADDPD/VSUBPD per scalar operation of the loops below, operands in
// the same order and nothing fused or reassociated: the results are the
// scalar code's to the bit (a NaN is a NaN on both paths; its payload is
// not part of the contract). Everywhere else, and for the last len%4
// elements, the Go loops run. useAVX2 is decided once at start-up from
// CPUID and XGETBV; tests clear it to reach the Go loops. No kernel's
// output slices may overlap another operand.

// useAVX2 selects the vector bodies.
var useAVX2 = haveAVX2()

// AxpyPair computes ya[p] += v·xa[p] and yb[p] += v·xb[p] for every p <
// len(ya). xa, xb and yb must be at least as long as ya.
func AxpyPair(v float64, xa, xb, ya, yb []float64) {
	n := len(ya)
	xa, xb, yb = xa[:n], xb[:n], yb[:n]
	if m := n &^ 3; useAVX2 && m > 0 {
		axpyPairAVX2(v, xa[:m], xb[:m], ya[:m], yb[:m])
		if m == n {
			return
		}
		xa, xb, ya, yb = xa[m:], xb[m:], ya[m:], yb[m:]
	}
	axpyPairGo(v, xa, xb, ya, yb)
}

func axpyPairGo(v float64, xa, xb, ya, yb []float64) {
	xa, xb, yb = xa[:len(ya)], xb[:len(ya)], yb[:len(ya)]
	for p := range ya {
		ya[p] += v * xa[p]
		yb[p] += v * xb[p]
	}
}

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
