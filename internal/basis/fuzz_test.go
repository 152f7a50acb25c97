package basis

import (
	"encoding/binary"
	"math"
	"testing"
)

func fuzzOperator2D(kind Kind, h, w int) (Operator, error) {
	rowOp, err := OperatorFor(kind, h)
	if err != nil {
		return nil, err
	}
	colOp, err := OperatorFor(kind, w)
	if err != nil {
		return nil, err
	}
	return NewSeparable2D(rowOp, colOp), nil
}

// FuzzOperatorRoundTrip feeds the matrix-free operators adversarial sizes
// and values. The contract under test: OperatorFor either errors or returns
// an operator whose analyze/synthesize pair round-trips finite input (the
// orthonormality property the decoders rely on), with no panics for any
// byte pattern. A first byte ≥ 128 draws a 2-D shape instead — factors of
// 1..8 rows by 1..8 columns, square or rectangular — so Separable2D's paired
// route, its single-row/column tails and its dense-factor loop see the same
// inputs. A 2-D operator also analyzes x from its nonzero entries alone
// (ApplyTransposeScattered, one location listed twice with a zero value),
// which must agree with ApplyTranspose of x.
func FuzzOperatorRoundTrip(f *testing.F) {
	f.Add([]byte("\x01\x03abcdefgh12345678"))
	f.Add([]byte("\x02\x08" +
		"\x00\x00\x00\x00\x00\x00\xf0\x7f" + // +Inf
		"\xff\xff\xff\xff\xff\xff\xff\xff" + // NaN
		"\x01\x00\x00\x00\x00\x00\x00\x00")) // denormal
	f.Add([]byte("\x03\x00"))                         // Haar at n=1
	f.Add([]byte("\x00\x0dZZZZZZZZZZZZ"))             // identity, non-dyadic size
	f.Add([]byte("\x85\x3babcdefgh12345678ABCDEFGH")) // 2-D DCT, 4×8
	f.Add([]byte("\x85\x38abcdefgh"))                 // 2-D DCT, 1×8: the odd-count tail
	f.Add([]byte("\x85\x15abcdefgh12345678"))         // 2-D DCT, 6×3: dense factors
	f.Add([]byte("\x85\x3f\x03\x00\x00\xfd\x00\x7f")) // 2-D DCT, 8×8, 3 of 64 nonzero: scattered front end
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		kinds := []Kind{KindIdentity, KindDCT, KindDFT, KindHaar, KindLearned, Kind("bogus")}
		kind := kinds[int(data[0])%len(kinds)]
		// Sizes 1..64: powers of two exercise the fast paths, the rest the
		// dense fallback and the Haar/learned rejection paths.
		n := 1 + int(data[1])%64
		var op Operator
		var err error
		if data[0] < 128 {
			op, err = OperatorFor(kind, n)
		} else {
			h, w := 1+int(data[1])%8, 1+int(data[1]>>3)%8
			n = h * w
			op, err = fuzzOperator2D(kind, h, w)
		}
		data = data[2:]
		if err != nil {
			return
		}
		if op.Dim() != n {
			t.Fatalf("%s/%d: Dim() = %d", kind, n, op.Dim())
		}
		x := make([]float64, n)
		finite := true
		for i := range x {
			if len(data) >= 8 {
				x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			} else if len(data) > 0 {
				x[i] = float64(int8(data[0]))
				data = data[1:]
			}
			// Huge magnitudes legitimately overflow to Inf inside the
			// transform; bound the round-trip check to tame inputs.
			if math.IsNaN(x[i]) || math.Abs(x[i]) > 1e12 {
				finite = false
			}
		}
		mid := make([]float64, n)
		back := make([]float64, n)
		op.Apply(mid, x)
		op.ApplyTranspose(back, mid)
		var locs []int
		var vals []float64
		sep, is2D := op.(*Separable2D)
		if is2D {
			for i, v := range x {
				if v != 0 {
					locs, vals = append(locs, i), append(vals, v)
				}
			}
			if len(locs) > 0 {
				locs, vals = append(locs, locs[0]), append(vals, 0)
			}
			sep.ApplyTransposeScattered(mid, locs, vals)
		}
		if !finite {
			return
		}
		scale := 1.0
		for i := range x {
			if v := math.Abs(x[i]); v > scale {
				scale = v
			}
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-6*scale {
				t.Fatalf("%s/%d: round-trip [%d] %v -> %v (scale %v)", kind, n, i, x[i], back[i], scale)
			}
		}
		if is2D {
			op.ApplyTranspose(back, x)
			for i := range back {
				if math.Abs(mid[i]-back[i]) > 1e-9*scale {
					t.Fatalf("%s/%d: scattered analysis [%d] %v, dense %v (scale %v)", kind, n, i, mid[i], back[i], scale)
				}
			}
		}
	})
}
