//go:build !amd64

package mat

// Without vector bodies useAVX2 is always false; the stubs keep the
// dispatching wrappers portable and, if ever reached, run the Go loops.

func haveAVX2() bool { return false }

func axpyPairAVX2(v float64, xa, xb, ya, yb []float64) { axpyPairGo(v, xa, xb, ya, yb) }

func butterflyAVX2(rk, ik, rj, ij []float64, wre, wim float64) {
	butterflyGo(rk, ik, rj, ij, wre, wim)
}

func radix4AVX2(r0, i0, r1, i1, r2, i2, r3, i3 []float64, sign float64) {
	radix4Go(r0, i0, r1, i1, r2, i2, r3, i3, sign)
}
