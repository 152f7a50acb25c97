//go:build !amd64

package mat

// Without vector bodies useAVX2 is always false; the stubs keep the
// dispatching wrappers portable and, if ever reached, run the Go loops.

func haveAVX2() bool { return false }

func separateAVX2(out, rk, ik, rj, ij []float64, c, s float64) {
	separateGo(out, rk, ik, rj, ij, c, s)
}

func scatterAxpyPairAVX2(ya, yb, tab []float64, shift uint, slot, locs []int, vals []float64) {
	scatterAxpyPairGo(ya, yb, tab, 1<<shift, slot, locs, vals)
}

func subMulAVX2(v, q []float64, h float64) { subMulGo(v, q, h) }

func subMul4AVX2(v, q0, q1, q2, q3 []float64, h0, h1, h2, h3 float64) {
	subMul4Go(v, q0, q1, q2, q3, h0, h1, h2, h3)
}

func argmaxAbsAVX2(a []float64, best *[4]float64, at *[4]int) {
	argmaxAbsClasses(a, 0, best, at)
}

func butterflyAVX2(rk, ik, rj, ij []float64, wre, wim float64) {
	butterflyGo(rk, ik, rj, ij, wre, wim)
}

func radix4AVX2(r0, i0, r1, i1, r2, i2, r3, i3 []float64, sign float64) {
	radix4Go(r0, i0, r1, i1, r2, i2, r3, i3, sign)
}
