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

// kernelCase is one call of a kernel on operand slices of widths[i]·n
// elements, each at its own offset into a padded buffer, plus scalars.
type kernelCase struct {
	bufs    [][]float64 // operand buffers, padded past widths[i]·n+offset
	offs    []int
	widths  []int
	n       int
	scalars []float64
}

func (c kernelCase) operands() [][]float64 {
	ops := make([][]float64, len(c.bufs))
	for i, b := range c.bufs {
		ops[i] = b[c.offs[i]:][:c.widths[i]*c.n]
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
	widths := make([]int, k)
	for i := range widths {
		widths[i] = 1
	}
	checkKernelPathsWidths(t, name, widths, nScalars, call)
}

// checkKernelPathsWidths is checkKernelPaths with operand i widths[i]
// times as long as the lane count.
func checkKernelPathsWidths(t *testing.T, name string, widths []int, nScalars int, call func(ops [][]float64, s []float64)) {
	t.Helper()
	if !haveAVX2() {
		t.Skip("CPU without AVX2: only the Go loops exist here")
	}
	rng := rand.New(rand.NewSource(46))
	k := len(widths)
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 6; trial++ {
			c := kernelCase{n: n, offs: make([]int, k), widths: widths, scalars: make([]float64, nScalars)}
			for i := 0; i < k; i++ {
				c.offs[i] = rng.Intn(4)
				buf := make([]float64, widths[i]*n+8)
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

func TestSeparatePathsBitIdentical(t *testing.T) {
	checkKernelPathsWidths(t, "Separate", []int{2, 1, 1, 1, 1}, 2, func(ops [][]float64, s []float64) {
		Separate(ops[0], ops[1], ops[2], ops[3], ops[4], s[0], s[1])
	})
	// colStage's bins k = 0 and k = n/2 are their own partners j = n−k.
	checkKernelPathsWidths(t, "Separate k = j", []int{2, 1, 1}, 2, func(ops [][]float64, s []float64) {
		Separate(ops[0], ops[1], ops[2], ops[1], ops[2], s[0], s[1])
	})
}

func TestSubMulPathsBitIdentical(t *testing.T) {
	checkKernelPaths(t, "SubMul", 2, 1, func(ops [][]float64, s []float64) {
		SubMul(ops[0], ops[1], s[0])
	})
}

func TestSubMul4PathsBitIdentical(t *testing.T) {
	checkKernelPaths(t, "SubMul4", 5, 4, func(ops [][]float64, s []float64) {
		SubMul4(ops[0], ops[1], ops[2], ops[3], ops[4], s[0], s[1], s[2], s[3])
	})
}

// scatterCase is one ScatterAxpyPair call: a table of h rows of h values,
// w blocks whose slot rows lie in ya and yb, and the locations.
type scatterCase struct {
	h          int
	tab        []float64
	ya, yb     []float64 // padded buffers; the operands start at yOff
	yOff, rows int
	slot, locs []int
	vals       []float64
}

func (c scatterCase) run() (ya, yb []float64) {
	ya, yb = append([]float64(nil), c.ya...), append([]float64(nil), c.yb...)
	n := c.rows * c.h / 2
	ScatterAxpyPair(ya[c.yOff:][:n], yb[c.yOff:][:n], c.tab, c.h, c.slot, c.locs, c.vals)
	return ya, yb
}

// newScatterCase draws a case with m locations, duplicates and repeated
// slot rows included, and the special values among the elements.
func newScatterCase(rng *rand.Rand, m int) scatterCase {
	h := 2 << rng.Intn(6)
	w := 1 + rng.Intn(5)
	rows := w + rng.Intn(3)
	c := scatterCase{h: h, yOff: rng.Intn(4), rows: rows, slot: make([]int, w), locs: make([]int, m), vals: make([]float64, m)}
	tabBuf := make([]float64, h*h+3)
	kernelInput(rng, tabBuf)
	c.tab = tabBuf[rng.Intn(4):][:h*h]
	c.ya, c.yb = make([]float64, rows*h/2+8), make([]float64, rows*h/2+8)
	kernelInput(rng, c.ya)
	kernelInput(rng, c.yb)
	for b := range c.slot {
		c.slot[b] = rng.Intn(rows)
	}
	for i := range c.locs {
		c.locs[i] = rng.Intn(w * h)
	}
	kernelInput(rng, c.vals)
	return c
}

// TestScatterAxpyPairPathsBitIdentical runs every location count 0–67
// through both paths, row lengths h = 2…64 (h/2 below four runs the Go
// loop on both).
func TestScatterAxpyPairPathsBitIdentical(t *testing.T) {
	if !haveAVX2() {
		t.Skip("CPU without AVX2: only the Go loops exist here")
	}
	rng := rand.New(rand.NewSource(47))
	for m := 0; m <= 67; m++ {
		for trial := 0; trial < 6; trial++ {
			c := newScatterCase(rng, m)
			var goA, goB, vecA, vecB []float64
			withAVX2(false, func() { goA, goB = c.run() })
			withAVX2(true, func() { vecA, vecB = c.run() })
			for i := range goA {
				if !sameFloat(vecA[i], goA[i]) || !sameFloat(vecB[i], goB[i]) {
					t.Fatalf("m=%d h=%d trial %d element %d (offset %d): (%v, %v), Go loop (%v, %v)",
						m, c.h, trial, i, c.yOff, vecA[i], vecB[i], goA[i], goB[i])
				}
			}
		}
	}
}

// TestScatterAxpyPairMatchesScalarDefinition pins ScatterAxpyPair, on
// both paths, to the per-location expression the scattered analysis used
// inline, so the oracle the vector body is held to is the right one.
func TestScatterAxpyPairMatchesScalarDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, on := range []bool{false, true} {
		if on && !haveAVX2() {
			continue
		}
		for trial := 0; trial < 20; trial++ {
			c := newScatterCase(rng, 1+rng.Intn(40))
			for _, buf := range [][]float64{c.tab, c.ya, c.yb, c.vals} {
				for i := range buf {
					buf[i] = rng.NormFloat64()
				}
			}
			var ya, yb []float64
			withAVX2(on, func() { ya, yb = c.run() })
			wa, wb := append([]float64(nil), c.ya...), append([]float64(nil), c.yb...)
			half := c.h / 2
			for i, l := range c.locs {
				base := c.yOff + c.slot[l/c.h]*half
				r := l % c.h
				for p := 0; p < half; p++ {
					wa[base+p] += c.vals[i] * c.tab[r*c.h+p]
					wb[base+p] += c.vals[i] * c.tab[r*c.h+half+p]
				}
			}
			requireBits(t, fmt.Sprintf("avx2=%v trial %d ya", on, trial), ya, wa)
			requireBits(t, fmt.Sprintf("avx2=%v trial %d yb", on, trial), yb, wb)
		}
	}
}

// TestScatterAxpyPairRejectsOutOfRange requires a panic, before any
// element is written, for a location past the blocks, a negative one and
// a slot row outside ya or yb: the vector body does no bounds checks of
// its own.
func TestScatterAxpyPairRejectsOutOfRange(t *testing.T) {
	tab := make([]float64, 64)
	for i := range tab {
		tab[i] = 1
	}
	for _, c := range []struct {
		name       string
		h          int
		slot, locs []int
	}{
		{"location past the blocks", 8, []int{0, 1}, []int{3, 16}},
		{"negative location", 8, []int{0, 1}, []int{-1}},
		{"slot row past ya", 8, []int{0, 2}, []int{0}},
		{"negative slot row", 8, []int{-1, 0}, []int{0}},
		{"row length not a power of two", 6, []int{0}, []int{0}},
	} {
		ya, yb := make([]float64, 8), make([]float64, 8) // two slot rows of h/2 = 4
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			ScatterAxpyPair(ya, yb, tab, c.h, c.slot, c.locs, []float64{1, 1}[:len(c.locs)])
		}()
		for i := range ya {
			if ya[i] != 0 || yb[i] != 0 {
				t.Fatalf("%s: element %d written before the panic", c.name, i)
			}
		}
	}
}

// TestArgmaxAbsPathsAgree runs every length 0–67 at offsets 0–3, the
// special values among the elements, through both paths.
func TestArgmaxAbsPathsAgree(t *testing.T) {
	if !haveAVX2() {
		t.Skip("CPU without AVX2: only the Go loops exist here")
	}
	rng := rand.New(rand.NewSource(48))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 20; trial++ {
			buf := make([]float64, n+3)
			kernelInput(rng, buf)
			if trial%4 == 1 {
				for i := range buf { // ties of equal and opposite sign
					buf[i] = float64(rng.Intn(3) - 1)
				}
			}
			a := buf[rng.Intn(4):][:n]
			var goJ, vecJ int
			withAVX2(false, func() { goJ = ArgmaxAbs(a) })
			withAVX2(true, func() { vecJ = ArgmaxAbs(a) })
			if vecJ != goJ {
				t.Fatalf("n=%d trial %d: vector body %d, Go loop %d (a = %v)", n, trial, vecJ, goJ, a)
			}
		}
	}
}

// sequentialScan is step (c) as one running maximum over the unused
// coefficients, the scan ArgmaxAbs replaces.
func sequentialScan(a []float64, inSupport []bool) int {
	best, bestJ := 0.0, -1
	for j := range a {
		if inSupport[j] {
			continue
		}
		if c := math.Abs(a[j]); c > best {
			best, bestJ = c, j
		}
	}
	if bestJ < 0 || best == 0 {
		return -1
	}
	return bestJ
}

// TestArgmaxAbsMatchesSequentialScan pins the four-way scan, on a
// correlation whose support entries are zeroed, to the sequential scan
// that skips the support, on both paths: every length 0–40 and 4096,
// values drawn from a small set so that ties (of equal and of opposite
// sign) are common, NaNs and infinities among them, plus an all-zero
// vector, an all-NaN one, and the maximum placed on the support.
func TestArgmaxAbsMatchesSequentialScan(t *testing.T) {
	for _, on := range []bool{false, true} {
		if on && !haveAVX2() {
			continue
		}
		withAVX2(on, func() { checkArgmaxAbsSequential(t, fmt.Sprintf("avx2=%v", on)) })
	}
}

func checkArgmaxAbsSequential(t *testing.T, path string) {
	rng := rand.New(rand.NewSource(46))
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 3, -3, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}
	lengths := []int{4096}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	check := func(label string, a []float64, inSupport []bool) {
		t.Helper()
		want := sequentialScan(a, inSupport)
		z := append([]float64(nil), a...)
		for j, in := range inSupport {
			if in {
				z[j] = 0
			}
		}
		if got := ArgmaxAbs(z); got != want {
			t.Fatalf("%s %s: ArgmaxAbs = %d, sequential scan %d (a = %v, support %v)", path, label, got, want, a, inSupport)
		}
	}
	for _, n := range lengths {
		for trial := 0; trial < 50; trial++ {
			a := make([]float64, n)
			inSupport := make([]bool, n)
			for j := range a {
				if trial%2 == 0 {
					a[j] = pool[rng.Intn(len(pool))]
				} else {
					a[j] = rng.NormFloat64()
				}
				inSupport[j] = rng.Intn(5) == 0
			}
			label := fmt.Sprintf("n=%d trial %d", n, trial)
			check(label, a, inSupport)
			if n > 0 && trial%5 == 0 {
				j := rng.Intn(n) // the largest entry sits on the support
				a[j], inSupport[j] = math.Inf(1), true
				check(label+" max on support", a, inSupport)
			}
		}
		check(fmt.Sprintf("n=%d all zero", n), make([]float64, n), make([]bool, n))
		nan := make([]float64, n)
		for j := range nan {
			nan[j] = math.NaN()
		}
		check(fmt.Sprintf("n=%d all NaN", n), nan, make([]bool, n))
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

// BenchmarkSeparate is colStage's separation on a 64×64 zone: 64 output
// rows, each from two bins of 32 lanes.
func BenchmarkSeparate(b *testing.B) {
	const w, half = 64, 32
	rng := rand.New(rand.NewSource(4))
	re, im, out := make([]float64, w*half), make([]float64, w*half), make([]float64, w*2*half)
	for i := range re {
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	benchKernelPaths(b, func() {
		for k := 0; k < w; k++ {
			j := (w - k) & (w - 1)
			Separate(out[k*2*half:][:2*half], re[k*half:][:half], im[k*half:][:half], re[j*half:][:half], im[j*half:][:half], 0.4, -0.3)
		}
	})
}

// BenchmarkScatterAxpyPair is the scattered front end of a 64×64 zone at
// the campaign-decode (M = 400) and fleet-round (M = 1024) sample counts,
// the planes zeroed first as scatterStage does.
func BenchmarkScatterAxpyPair(b *testing.B) {
	const h, w = 64, 64
	rng := rand.New(rand.NewSource(5))
	tab := make([]float64, h*h)
	for i := range tab {
		tab[i] = rng.NormFloat64()
	}
	slot := rng.Perm(w)
	re, im := make([]float64, h*w/2), make([]float64, h*w/2)
	for _, m := range []int{400, 1024} {
		locs, vals := rng.Perm(h * w)[:m], make([]float64, m)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		b.Run(fmt.Sprintf("M%d", m), func(b *testing.B) {
			benchKernelPaths(b, func() {
				clear(re)
				clear(im)
				ScatterAxpyPair(re, im, tab, h, slot, locs, vals)
			})
		})
	}
}

// BenchmarkSubMul4 is one four-column Gram–Schmidt update of a
// campaign-decode zone's 400-row column; BenchmarkSubMul the one-column
// form.
func BenchmarkSubMul4(b *testing.B) {
	const m = 400
	rng := rand.New(rand.NewSource(6))
	q := make([][]float64, 5)
	for i := range q {
		q[i] = make([]float64, m)
		for j := range q[i] {
			q[i][j] = rng.NormFloat64()
		}
	}
	benchKernelPaths(b, func() { SubMul4(q[0], q[1], q[2], q[3], q[4], 1e-3, -2e-3, 3e-3, -4e-3) })
}

func BenchmarkSubMul(b *testing.B) {
	const m = 400
	rng := rand.New(rand.NewSource(6))
	v, q := make([]float64, m), make([]float64, m)
	for i := range v {
		v[i], q[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	benchKernelPaths(b, func() { SubMul(v, q, 1e-3) })
}

// BenchmarkArgmaxAbs is one step-(c) scan of a 64×64 zone's correlation.
func BenchmarkArgmaxAbs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 4096)
	for j := range a {
		a[j] = rng.NormFloat64()
	}
	benchKernelPaths(b, func() { ArgmaxAbs(a) })
}
