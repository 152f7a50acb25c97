package mat

// haveAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches: CPUID leaf 1's
// OSXSAVE and AVX bits, XCR0's SSE and AVX state bits, CPUID leaf 7's AVX2
// bit.
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// Implemented in kernels_amd64.s.

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() (a, d uint32)

//go:noescape
func separateAVX2(out, rk, ik, rj, ij []float64, c, s float64)

//go:noescape
func scatterAxpyPairAVX2(ya, yb, tab []float64, shift uint, slot, locs []int, vals []float64)

//go:noescape
func subMulAVX2(v, q []float64, h float64)

//go:noescape
func subMul4AVX2(v, q0, q1, q2, q3 []float64, h0, h1, h2, h3 float64)

//go:noescape
func argmaxAbsAVX2(a []float64, best *[4]float64, at *[4]int)

//go:noescape
func butterflyAVX2(rk, ik, rj, ij []float64, wre, wim float64)

//go:noescape
func radix4AVX2(r0, i0, r1, i1, r2, i2, r3, i3 []float64, sign float64)
