package cs

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/mat"
)

// The decode fuzz targets feed the sparse decoders adversarial numerics:
// NaN, ±Inf, denormals, rank-deficient and zero matrices, out-of-range
// sensor locations, and invalid sparsity levels. The contract under test
// is "error, never panic" — a broker decoding hostile or corrupt sensor
// data must stay up — plus the structural invariants of any Result that
// is returned.

// fuzzProblem is a tiny decode problem derived from raw fuzz bytes.
type fuzzProblem struct {
	phi  *mat.Matrix
	locs []int
	y    []float64
	k    int
}

// newFuzzProblem maps fuzz bytes onto a problem. The first four bytes
// pick dimensions and sparsity (including invalid values, to walk the
// error paths); the rest become basis entries, sensor locations, and
// measurements. Float64s come straight from the bit pattern, so the
// engine reaches NaN, ±Inf, and denormals for free.
func newFuzzProblem(data []byte) (fuzzProblem, bool) {
	if len(data) < 4 {
		return fuzzProblem{}, false
	}
	n := 1 + int(data[0]%8)  // signal length; the basis is n×n (data[1] is spare)
	m := 1 + int(data[2]%8)  // measurement count
	k := int(data[3]%10) - 1 // -1..8: k <= 0 must error, not panic
	data = data[4:]
	next := func() float64 {
		if len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		if len(data) > 0 {
			v := float64(int8(data[0]))
			data = data[1:]
			return v
		}
		return 0
	}
	phi := mat.New(n, n)
	for i := range phi.Data {
		phi.Data[i] = next()
	}
	locs := make([]int, m)
	for i := range locs {
		b := byte(i)
		if len(data) > 0 {
			b = data[0]
			data = data[1:]
		}
		locs[i] = int(b%16) - 2 // mostly in range; negatives and overshoots must error
	}
	y := make([]float64, m)
	for i := range y {
		y[i] = next()
	}
	return fuzzProblem{phi: phi, locs: locs, y: y, k: k}, true
}

// checkResult asserts the structural invariants every successful decode
// must satisfy no matter how degenerate the input values were.
func checkResult(t *testing.T, p fuzzProblem, res *Result) {
	t.Helper()
	if res == nil {
		t.Fatal("nil result without error")
	}
	if len(res.Alpha) != p.phi.Cols {
		t.Fatalf("Alpha length %d, want %d", len(res.Alpha), p.phi.Cols)
	}
	if len(res.Xhat) != p.phi.Rows {
		t.Fatalf("Xhat length %d, want %d", len(res.Xhat), p.phi.Rows)
	}
	seen := make(map[int]bool, len(res.Support))
	for _, j := range res.Support {
		if j < 0 || j >= p.phi.Cols {
			t.Fatalf("support index %d outside [0,%d)", j, p.phi.Cols)
		}
		if seen[j] {
			t.Fatalf("duplicate support index %d", j)
		}
		seen[j] = true
	}
	if res.Residual < 0 { // NaN-safe: NaN compares false
		t.Fatalf("negative residual %v", res.Residual)
	}
	if res.Iterations < 0 {
		t.Fatalf("negative iteration count %d", res.Iterations)
	}
}

func FuzzDecodeOMP(f *testing.F) {
	f.Add([]byte("\x06\x05\x04\x03ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnop0123456789"))
	f.Add([]byte("\x04\x04\x03\x02" +
		"\x00\x00\x00\x00\x00\x00\xf0\x7f" + // +Inf
		"\xff\xff\xff\xff\xff\xff\xff\xff" + // NaN
		"\x00\x00\x00\x00\x00\x00\xf0\xff" + // -Inf
		"\x01\x00\x00\x00\x00\x00\x00\x00")) // denormal
	f.Add([]byte("\x01\x01\x01\x01"))         // all-zero 1x1 problem
	f.Add([]byte("\x08\x08\x08\x00zzzzzzzz")) // k == -1: must error cleanly
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := newFuzzProblem(data)
		if !ok {
			return
		}
		op, err := basis.FromMatrix(p.phi)
		if err != nil {
			return
		}
		res, err := OMPOp(op, p.locs, p.y, p.k, 1e-9)
		if err != nil {
			return
		}
		checkResult(t, p, res)
		if len(res.Support) > len(p.locs) {
			t.Fatalf("OMP support size %d exceeds measurement count %d", len(res.Support), len(p.locs))
		}
	})
}

func FuzzDecodeIHT(f *testing.F) {
	f.Add([]byte("\x05\x06\x04\x04qwertyuiopasdfghjklzxcvbnm1234567890QWERTY"))
	f.Add([]byte("\x03\x03\x02\x03" +
		"\xff\xff\xff\xff\xff\xff\xff\xff" + // NaN
		"\x00\x00\x00\x00\x00\x00\xf0\x7f")) // +Inf
	f.Add([]byte("\x01\x01\x01\x00")) // k == -1 on the minimal problem
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := newFuzzProblem(data)
		if !ok {
			return
		}
		op, err := basis.FromMatrix(p.phi)
		if err != nil {
			return
		}
		res, err := IHTOp(op, p.locs, p.y, IHTOptions{K: p.k, MaxIter: 50})
		if err != nil {
			return
		}
		checkResult(t, p, res)
	})
}
