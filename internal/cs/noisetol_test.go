package cs

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/field"
	"repro/internal/mat"
	"repro/internal/obs"
)

// TestNoiseTolFloorAndSum: no σ, or only zero σ, gives exactly the
// noiseless 1e-8; an honest spread of σ is never clipped, so the
// tolerance is the plain √(Σσᵢ²), and invalid σ do not change it.
func TestNoiseTolFloorAndSum(t *testing.T) {
	for _, sigmas := range [][]float64{nil, {}, {0, 0, 0}} {
		if got := NoiseTol(sigmas); got != 1e-8 {
			t.Fatalf("NoiseTol(%v) = %v, want 1e-8", sigmas, got)
		}
	}
	rng := rand.New(rand.NewSource(3))
	sigmas := make([]float64, 1024)
	sum := 0.0
	for i := range sigmas {
		sigmas[i] = 0.05 + 0.2*rng.Float64() // the fleet's spread
		sum += sigmas[i] * sigmas[i]
	}
	if got, want := NoiseTol(sigmas), math.Sqrt(sum); got != want {
		t.Fatalf("honest fleet σ: NoiseTol %v, want √Σσ² = %v", got, want)
	}
	// σ that are not positive and finite claim no noise: left out.
	invalid := append(sigmas, 0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1))
	if got, want := NoiseTol(invalid), math.Sqrt(sum); got != want {
		t.Fatalf("honest σ plus invalid ones: NoiseTol %v, want %v", got, want)
	}
}

// TestNoiseTolHostileSigma: a reading claiming σ = 1e6 among honest ones
// moves the support by at most one atom, and NaN, ±Inf or negative σ
// never give a NaN or infinite tolerance or an empty decode.
func TestNoiseTolHostileSigma(t *testing.T) {
	c := zoneCases[1]
	op, locs, y, sigmas := zoneProblem(t, c, 5)
	honest, err := CHSOp(op, locs, y, c.opts(sigmas))
	if err != nil {
		t.Fatal(err)
	}
	if len(honest.Support) >= c.k {
		t.Fatalf("honest decode ran to the support cap %d: the case does not reach its noise floor", c.k)
	}
	hostile := func(bad float64) []float64 {
		s := append([]float64(nil), sigmas...)
		s[len(s)/2] = bad
		return s
	}
	liar, err := CHSOp(op, locs, y, c.opts(hostile(1e6)))
	if err != nil {
		t.Fatal(err)
	}
	if d := len(liar.Support) - len(honest.Support); d < -1 || d > 1 {
		t.Fatalf("one σ = 1e6 moved the support from %d to %d atoms", len(honest.Support), len(liar.Support))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		for _, s := range [][]float64{hostile(bad), {bad, bad, bad}} {
			tol := NoiseTol(s)
			if math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 1e-8 {
				t.Fatalf("NoiseTol with σ = %v: %v", bad, tol)
			}
		}
		res, err := CHSOp(op, locs, y, c.opts(hostile(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Support) == 0 {
			t.Fatalf("σ = %v among honest readings gave an empty decode", bad)
		}
	}
}

// TestNoiselessDecodesUnchanged: with σ nil or all zero, a decode under
// NoiseTol is bit for bit the decode under the noiseless Tol 1e-8, on
// each bench zone shape.
func TestNoiselessDecodesUnchanged(t *testing.T) {
	for _, c := range zoneCases {
		op, locs, y, _ := zoneProblem(t, c, 2)
		for _, sigmas := range [][]float64{nil, make([]float64, len(y))} {
			opts := c.opts(sigmas)
			got, err := CHSOp(op, locs, y, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Tol = 1e-8
			want, err := CHSOp(op, locs, y, opts)
			if err != nil {
				t.Fatal(err)
			}
			if msg := sameResult(got, want); msg != "" {
				t.Fatalf("%s, σ %v: %s", c.name, sigmas == nil, msg)
			}
		}
	}
}

// TestCHSStopReasonCounters: every way out of the CHS loop counts once
// under its own reason.
func TestCHSStopReasonCounters(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	reasons := map[string]*obs.Counter{
		"noise floor":        obsStopNoise,
		"support cap":        obsStopSupport,
		"iteration cap":      obsStopIters,
		"rank deficient":     obsStopRank,
		"nothing admissible": obsStopNone,
	}
	dense := func(rows ...[]float64) basis.Operator {
		m := mat.New(len(rows), len(rows[0]))
		for i, r := range rows {
			copy(m.Data[i*m.Cols:], r)
		}
		op, err := basis.FromMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	c := zoneCases[1]
	zoneOp, zoneLocs, zoneY, zoneSigmas := zoneProblem(t, c, 5)
	cases := []struct {
		reason string
		op     basis.Operator
		locs   []int
		y      []float64
		opts   CHSOptions
	}{
		{"noise floor", zoneOp, zoneLocs, zoneY, c.opts(zoneSigmas)},
		{"support cap", zoneOp, zoneLocs, zoneY, CHSOptions{MaxSupport: 3, MaxIter: 10, Tol: 1e-8}},
		{"iteration cap", zoneOp, zoneLocs, zoneY, CHSOptions{MaxSupport: 10, MaxIter: 2, Tol: 1e-8}},
		// The second column is the first tilted by 1e-14: once it is in,
		// the first adds nothing the factors do not span.
		{"rank deficient", dense([]float64{1, 1}, []float64{0, 1e-14}), []int{0, 1}, []float64{1, 1}, CHSOptions{Tol: 1e-8}},
		// The second sensor sees no atom at all.
		{"nothing admissible", dense([]float64{1, 0}, []float64{0, 0}), []int{0, 1}, []float64{0, 1}, CHSOptions{Tol: 1e-8}},
	}
	for _, tc := range cases {
		before := make(map[string]int64, len(reasons))
		for name, ctr := range reasons {
			before[name] = ctr.Value()
		}
		if _, err := CHSOp(tc.op, tc.locs, tc.y, tc.opts); err != nil {
			t.Fatal(err)
		}
		for name, ctr := range reasons {
			want := int64(0)
			if name == tc.reason {
				want = 1
			}
			if got := ctr.Value() - before[name]; got != want {
				t.Errorf("%s decode: %s counted %d, want %d", tc.reason, name, got, want)
			}
		}
	}
}

// TestZoneNMSEMatchesExtract: scoring a zone in place is bit for bit the
// score of its extracted copy.
func TestZoneNMSEMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	truth := field.New(24, 16)
	for i := range truth.Data {
		truth.Data[i] = rng.NormFloat64()
	}
	zones, err := field.Partition(truth, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range zones {
		est := make([]float64, z.W*z.H)
		for i := range est {
			est[i] = rng.NormFloat64()
		}
		got, want := ZoneNMSE(truth, z, est), NMSE(field.Extract(truth, z).Data, est)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("zone %d: ZoneNMSE %v, NMSE of the extract %v", z.ID, got, want)
		}
	}
	if got := ZoneNMSE(truth, zones[0], nil); !math.IsNaN(got) {
		t.Fatalf("mis-sized estimate scored %v, want NaN", got)
	}
}

// FuzzNoiseTol feeds NoiseTol arbitrary σ bit patterns (NaN, ±Inf,
// negatives, denormals, 1e300) and the decode arbitrary measurements: the
// tolerance stays finite and ≥ 1e-8, and the decode it stops never
// outgrows its support cap and never errors, but for ErrNonFinite on
// readings whose squares do not sum to a finite number (a NaN or ±Inf
// among them, or one above ~1e154): their decode overflows or is NaN.
func FuzzNoiseTol(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x7f" + // +Inf
		"\xff\xff\xff\xff\xff\xff\xff\xff" + // NaN
		"\x00\x00\x00\x00\x00\x00\xf0\xff" + // -Inf
		"\x01\x00\x00\x00\x00\x00\x00\x00")) // denormal
	f.Add([]byte("\x9a\x99\x99\x99\x99\x99\xb9\x3f")) // σ = 0.1 throughout
	f.Add([]byte{})
	const side, m, maxSupport = 8, 16, 5
	op, err := basis.CachedOperator2D(basis.KindDCT, side, side)
	if err != nil {
		f.Fatal(err)
	}
	locs, err := RandomLocations(rand.New(rand.NewSource(1)), side*side, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(i int) float64 {
			if len(data) < 8 {
				return 0
			}
			o := (8 * i) % (len(data) - len(data)%8)
			return math.Float64frombits(binary.LittleEndian.Uint64(data[o:]))
		}
		sigmas := make([]float64, m)
		y := make([]float64, m)
		for i := range sigmas {
			sigmas[i] = next(i)
			y[i] = next(i + m + 1)
		}
		tol := NoiseTol(sigmas)
		if !(tol >= 1e-8 && tol <= math.MaxFloat64) {
			t.Fatalf("NoiseTol(%v) = %v", sigmas, tol)
		}
		res, err := CHSOp(op, locs, y, CHSOptions{MaxSupport: maxSupport, Tol: tol})
		if errors.Is(err, ErrNonFinite) && !finite(mat.Norm2(y)) {
			return
		}
		if err != nil {
			t.Fatalf("decode under NoiseTol %v: %v", tol, err)
		}
		if len(res.Support) > maxSupport {
			t.Fatalf("support %d exceeds the cap %d", len(res.Support), maxSupport)
		}
	})
}
