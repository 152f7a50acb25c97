package cs

import (
	"encoding/binary"
	"math"
	"strings"
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
	next := func() float64 { return fuzzFloat(&data) }
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

// fuzzFloat consumes one float64 from data: eight bytes as a bit pattern,
// else one byte as a small integer, else 0.
func fuzzFloat(data *[]byte) float64 {
	d := *data
	switch {
	case len(d) >= 8:
		*data = d[8:]
		return math.Float64frombits(binary.LittleEndian.Uint64(d))
	case len(d) > 0:
		*data = d[1:]
		return float64(int8(d[0]))
	}
	return 0
}

// dct8Problem is the fuzz encoding of a decode on the orthonormal DCT-8
// basis: readings y at locs, support cap 3.
func dct8Problem(locs []int, y ...float64) []byte {
	b := []byte{7, 0, byte(len(locs) - 1), 4}
	for _, v := range denseDCT(8).Data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, l := range locs {
		b = append(b, byte(l+2))
	}
	for _, v := range y {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
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
	if !(res.Residual >= 0) || math.IsInf(res.Residual, 0) {
		t.Fatalf("residual %v, want finite and non-negative", res.Residual)
	}
	for j, a := range res.Alpha {
		if !finite(a) {
			t.Fatalf("Alpha[%d] = %v", j, a)
		}
	}
	for i, x := range res.Xhat {
		if !finite(x) {
			t.Fatalf("Xhat[%d] = %v", i, x)
		}
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
	f.Add([]byte("\x01\x01\x01\x01"))               // all-zero 1x1 problem
	f.Add([]byte("\x08\x08\x08\x00zzzzzzzz"))       // k == -1: must error cleanly
	f.Add(dct8Problem([]int{1, 1, 5}, 2, -3, 1))    // a repeated location: its readings sum
	f.Add(dct8Problem([]int{0, 3, 6}, 0, 1e-10, 0)) // ‖y‖ ≤ tol: the zero estimate
	f.Add([]byte("\x05\x06\x04\x04qwertyuiopasdfghjklzxcvbnm1234567890QWERTY"))
	f.Add([]byte("\x03\x03\x02\x03" +
		"\xff\xff\xff\xff\xff\xff\xff\xff" + // NaN
		"\x00\x00\x00\x00\x00\x00\xf0\x7f")) // +Inf
	f.Add([]byte("\x01\x01\x01\x00")) // k == -1 on the minimal problem
	const tol = 1e-9
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := newFuzzProblem(data)
		if !ok {
			return
		}
		op, err := basis.FromMatrix(p.phi)
		if err != nil {
			return
		}
		res, err := OMPOp(op, p.locs, p.y, p.k, tol)
		if err != nil {
			return
		}
		checkResult(t, p, res)
		if len(res.Support) > len(p.locs) {
			t.Fatalf("OMP support size %d exceeds measurement count %d", len(res.Support), len(p.locs))
		}
		if mat.Norm2(p.y) <= tol && (res.Iterations != 0 || len(res.Support) != 0) {
			t.Fatalf("‖y‖ ≤ tol, yet %d iterations admitted %v", res.Iterations, res.Support)
		}
	})
}

// FuzzDecodeCHS drives the decoder the broker, fleet and stream run. Beside
// the problem it fuzzes a GLS noise slice (one short, exact or one long
// against the measurements, values from raw bit patterns) and a short
// warm-start seed (out-of-range, duplicate and overlong entries included).
// newFuzzProblem's duplicate locations reach the correlation that sums the
// readings of a repeated location.
func FuzzDecodeCHS(f *testing.F) {
	f.Add([]byte("\x06\x05\x04\x03ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnop0123456789"), []byte("\x01\x10\x20\x30\x40\x50"), []byte("\x03\x05"))
	f.Add([]byte("\x04\x04\x03\x02"+
		"\x00\x00\x00\x00\x00\x00\xf0\x7f"+ // +Inf
		"\xff\xff\xff\xff\xff\xff\xff\xff"), // NaN
		[]byte("\x01\xff\xff\xff\xff\xff\xff\xff\xff"), []byte("\x02\x02"))
	f.Add([]byte("\x07\x00\x07\x05"+"\x00\x00\x00\x00\x00\x00\xf0\x3f"+"\x03\x03\x03\x04\x04\x05\x06"), []byte{}, []byte("\x04"))
	f.Add([]byte("\x01\x01\x01\x00"), []byte("\x00"), []byte{}) // k == -1: default support cap
	// Readings of 1e308 on the orthonormal DCT-8.
	f.Add(dct8Problem([]int{1, 5, 7}, 1e308, 1e308, 0), []byte{}, []byte{}) // the residual's squares overflow
	f.Add(dct8Problem([]int{0, 1, 2}, 1e308, 1e308, 0), []byte{}, []byte{}) // α overflows: ErrNonFinite
	f.Fuzz(func(t *testing.T, data, sigmaBytes, seedBytes []byte) {
		p, ok := newFuzzProblem(data)
		if !ok {
			return
		}
		op, err := basis.FromMatrix(p.phi)
		if err != nil {
			return
		}
		var sigmas []float64
		if len(sigmaBytes) > 0 {
			sigmas = make([]float64, len(p.locs)+int(sigmaBytes[0]%3)-1)
			sigmaBytes = sigmaBytes[1:]
			for i := range sigmas {
				sigmas[i] = fuzzFloat(&sigmaBytes)
			}
		}
		seed := make([]int, min(len(seedBytes), 4))
		for i := range seed {
			seed[i] = int(seedBytes[i]%16) - 2
		}
		opts := CHSOptions{MaxIter: 8, Tol: 1e-9, MaxSupport: p.k, Sigmas: sigmas, SeedSupport: seed}
		res, err := CHSOp(op, p.locs, p.y, opts)
		if err != nil {
			return
		}
		checkResult(t, p, res)
		limit := len(p.locs)
		if p.k > 0 {
			limit = min(limit, p.k)
		}
		if len(res.Support) > limit {
			t.Fatalf("CHS support size %d exceeds MaxSupport %d (%d measurements)", len(res.Support), p.k, len(p.locs))
		}
	})
}

// FuzzDecodeBPDN drives the ℓ1 decoder with hostile readings (NaN, ±Inf,
// overflowing, all zero), duplicate and out-of-range locations, and any
// eps, negative and NaN included. The basis is the orthonormal DCT the
// solver's closed-form projection assumes: newFuzzProblem's basis entries
// are replaced. A decode either errors or returns a finite α that meets
// the constraint up to the stop rule, ‖y − Φ̃α‖ ≤ eps + 1e-6·‖y‖. At
// n ≤ 8 a solve that runs to the iteration cap stays cheap.
func FuzzDecodeBPDN(f *testing.F) {
	// n = 4 (a 16-entry basis), m = 3, locations from the three bytes after it.
	head := "\x03\x00\x02\x00" + strings.Repeat("\x00", 16*8)
	f.Add([]byte(head+"\x02\x03\x05"+"\x05\xfd\x01"), 0.0)
	f.Add([]byte(head+"\x02\x03\x05"+"\x05\xfd\x01"), 0.5)
	f.Add([]byte(head+"\x02\x03\x05"+"\x05\xfd\x01"), -1.0)                        // eps < 0
	f.Add([]byte(head+"\x02\x03\x05"+"\xff\xff\xff\xff\xff\xff\xff\xff\x01"), 0.1) // NaN reading
	f.Add([]byte(head+"\x02\x03\x05"+"\x00\x00\x00\x00\x00\x00\xf0\x7f\x01"), 0.1) // +Inf reading
	f.Add([]byte(head+"\x02\x03\x05"+"\xa0\xc8\xeb\x85\xf3\xcc\xe1\x7f\x01"), 0.0) // 1e308
	f.Add([]byte(head+"\x02\x03\x05"+strings.Repeat("v;w0\xd1B\xee\x7f", 3)), 0.0) // 1.7e308 ×3: α overflows
	f.Add([]byte(head+"\x02\x02\x05"+"\x05\xfd\x01"), 0.0)                         // duplicate location
	f.Add([]byte(head+"\x02\x03\x0f"+"\x05\xfd\x01"), 0.0)                         // location 13 of 4
	f.Add([]byte(head+"\x02\x03\x05"+"\x00\x00\x00"), 0.0)                         // y = 0
	f.Fuzz(func(t *testing.T, data []byte, eps float64) {
		p, ok := newFuzzProblem(data)
		if !ok {
			return
		}
		p.phi = denseDCT(p.phi.Rows)
		op, err := basis.FromMatrix(p.phi)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BPDN(op, p.locs, p.y, eps)
		if err != nil {
			return
		}
		checkResult(t, p, res)
		if limit := eps + 1e-6*mat.Norm2(p.y); !(res.Residual <= limit) {
			t.Fatalf("‖y − Φ̃α‖ = %v above eps %v + 1e-6·‖y‖", res.Residual, eps)
		}
	})
}
