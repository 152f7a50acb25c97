package mat

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// kernelSpecials are the inputs whose bits an arithmetic kernel most
// easily gets wrong: signed zeros, infinities, NaNs of both signs and
// several payloads (a signalling one included), subnormals and the range
// ends.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff4000000000001),
	math.Float64frombits(0xfff0000000000abc),
	5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// kernelInput fills v with normal draws, a quarter of them replaced by
// specials.
func kernelInput(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		} else {
			v[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(41)-20))
		}
	}
}

// sameFloat reports whether a and b have the same bits, counting any two
// NaNs as equal: when both inputs of an operation are NaN, the payload of
// the result follows the operand order, which Go does not fix (a -race
// build of the Go loops orders some operations differently from a plain
// one), and no result of the decode depends on it.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// withAVX2 runs f with the vector bodies switched on or off, restoring
// the start-up choice afterwards.
func withAVX2(on bool, f func()) {
	saved := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = saved }()
	f()
}

// kernelCase is one call of a kernel on k operand slices of length n, each
// at its own offset into a padded buffer, plus scalars.
type kernelCase struct {
	bufs    [][]float64 // operand buffers, padded past n+offset
	offs    []int
	n       int
	scalars []float64
}

func (c kernelCase) operands() [][]float64 {
	ops := make([][]float64, len(c.bufs))
	for i, b := range c.bufs {
		ops[i] = b[c.offs[i]:][:c.n]
	}
	return ops
}

func (c kernelCase) clone() kernelCase {
	d := c
	d.bufs = make([][]float64, len(c.bufs))
	for i, b := range c.bufs {
		d.bufs[i] = append([]float64(nil), b...)
	}
	return d
}

// checkKernelPaths runs call on identical copies of every case through
// the Go loops and through the vector bodies and requires every buffer —
// padding included — to agree bit for bit, NaN payloads aside. Each case has k operand slices
// of every length 0–67 at offsets 0–3 (the callers' sub-slices start at
// any element), and the scalars are drawn like the elements.
func checkKernelPaths(t *testing.T, name string, k, nScalars int, call func(ops [][]float64, s []float64)) {
	t.Helper()
	if !haveAVX2() {
		t.Skip("CPU without AVX2: only the Go loops exist here")
	}
	rng := rand.New(rand.NewSource(46))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 6; trial++ {
			c := kernelCase{n: n, offs: make([]int, k), scalars: make([]float64, nScalars)}
			for i := 0; i < k; i++ {
				c.offs[i] = rng.Intn(4)
				buf := make([]float64, n+8)
				kernelInput(rng, buf)
				c.bufs = append(c.bufs, buf)
			}
			kernelInput(rng, c.scalars)
			if trial == 0 {
				for i := range c.scalars {
					c.scalars[i] = rng.NormFloat64() // one finite-scalar case per length
				}
			}
			goCase, vecCase := c.clone(), c.clone()
			withAVX2(false, func() { call(goCase.operands(), goCase.scalars) })
			withAVX2(true, func() { call(vecCase.operands(), vecCase.scalars) })
			for i := range goCase.bufs {
				for j, want := range goCase.bufs[i] {
					if got := vecCase.bufs[i][j]; !sameFloat(got, want) {
						t.Fatalf("%s n=%d trial %d scalars %v: operand %d element %d (offset %d) = %v (%#x), Go loop %v (%#x)",
							name, n, trial, c.scalars, i, j, c.offs[i], got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestAxpyPairPathsBitIdentical(t *testing.T) {
	checkKernelPaths(t, "AxpyPair", 4, 1, func(ops [][]float64, s []float64) {
		AxpyPair(s[0], ops[0], ops[1], ops[2], ops[3])
	})
}

func TestButterflyPathsBitIdentical(t *testing.T) {
	checkKernelPaths(t, "Butterfly", 4, 2, func(ops [][]float64, s []float64) {
		Butterfly(ops[0], ops[1], ops[2], ops[3], s[0], s[1])
	})
}

func TestRadix4PathsBitIdentical(t *testing.T) {
	for _, sign := range []float64{-1, 1} {
		checkKernelPaths(t, fmt.Sprintf("Radix4 sign %v", sign), 8, 0, func(ops [][]float64, _ []float64) {
			Radix4(ops[0], ops[1], ops[2], ops[3], ops[4], ops[5], ops[6], ops[7], sign)
		})
	}
}

// TestAxpyPairMatchesScalarDefinition pins AxpyPair, on both paths, to
// the expression the scattered analysis used inline, so the oracle the
// vector body is held to is the right one. (Butterfly and Radix4 are
// pinned the same way through fft's TestBatchButterfliesMatchesButterflies,
// which compares BatchButterflies with the scalar Butterflies bit for bit.)
func TestAxpyPairMatchesScalarDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 13
	v := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	for _, on := range []bool{false, true} {
		if on && !haveAVX2() {
			continue
		}
		withAVX2(on, func() {
			xa, xb, ya, yb := v(), v(), v(), v()
			wa, wb := append([]float64(nil), ya...), append([]float64(nil), yb...)
			AxpyPair(0.75, xa, xb, ya, yb)
			for p := range wa {
				wa[p] += 0.75 * xa[p]
				wb[p] += 0.75 * xb[p]
			}
			requireBits(t, "AxpyPair ya", ya, wa)
			requireBits(t, "AxpyPair yb", yb, wb)
		})
	}
}

func requireBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// fusedMnemonic matches the x86 fused multiply-add family (VFMADD…,
// VFMSUB…, VFNMADD…, VFNMSUB…): one rounding where the Go loops round
// twice, which would move the decode's bits.
var fusedMnemonic = regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)

// TestNoFusedMultiplyAddInAssembly scans every assembly file of the module
// for a fused multiply-add instruction outside comments.
func TestNoFusedMultiplyAddInAssembly(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("go.mod not found above the package directory")
		}
		root = parent
	}
	scanned := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".s") {
			return nil
		}
		scanned++
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			code, _, _ := strings.Cut(sc.Text(), "//")
			if m := fusedMnemonic.FindString(code); m != "" {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s:%d: fused multiply-add %s…: the vector bodies must round like the Go loops", rel, line, m)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("no assembly file found: the scan is not looking where the kernels are")
	}
}

func benchKernelPaths(b *testing.B, run func()) {
	for _, on := range []bool{false, true} {
		name := "go"
		if on {
			name = "avx2"
			if !haveAVX2() {
				continue
			}
		}
		b.Run(name, func(b *testing.B) {
			withAVX2(on, func() {
				for b.Loop() {
					run()
				}
			})
		})
	}
}

// BenchmarkAxpyPair is one location of the scattered analysis on a 64-row
// zone: 32 lanes.
func BenchmarkAxpyPair(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, 4)
	for i := range x {
		x[i] = make([]float64, 32)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	benchKernelPaths(b, func() { AxpyPair(1e-3, x[0], x[1], x[2], x[3]) })
}

// BenchmarkButterfly is one radix-2 row of a batched FFT over 32 vectors.
func BenchmarkButterfly(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := make([][]float64, 4)
	for i := range x {
		x[i] = make([]float64, 32)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	wre, wim := math.Cos(0.1), -math.Sin(0.1)
	benchKernelPaths(b, func() { Butterfly(x[0], x[1], x[2], x[3], wre, wim) })
}
