package cs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/field"
	"repro/internal/mat"
)

func TestBPDNToleratesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	phi := denseDCT(32)
	x, _, _ := sparseSignal(rng, phi, 3)
	locs, _ := RandomLocations(rng, 32, 16)
	sigmas := make([]float64, len(locs))
	for i := range sigmas {
		sigmas[i] = 0.05
	}
	y, _ := Measure(x, locs, rng, sigmas)
	eps := NoiseTol(sigmas)
	res, err := BPDN(denseOp(t, phi), locs, y, eps)
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 0.1 {
		t.Fatalf("BPDN NMSE %v", nm)
	}
	// The fidelity constraint holds at the sensors, up to the stop rule.
	if res.Residual > eps*(1+1e-6) {
		t.Fatalf("fidelity violated: ‖y − Φ̃α‖ = %v, eps %v", res.Residual, eps)
	}
}

func TestBPDNZeroEpsFallsBackToBP(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	phi := denseDCT(24)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 2)
	locs, _ := RandomLocations(rng, 24, 10)
	y, _ := Measure(x, locs, rng, nil)
	res, err := BPDN(op, locs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-8 {
		t.Fatalf("BPDN(eps=0) NMSE %v", nm)
	}
	if _, err := BPDN(op, locs, y, -1); err == nil {
		t.Fatal("want eps error")
	}
	// A repeated location with consistent readings is feasible, but breaks
	// the orthonormal rows the projection relies on.
	if _, err := BPDN(op, []int{locs[0], locs[0]}, []float64{y[0], y[0]}, 0); err == nil {
		t.Fatal("want duplicate-location error")
	}
}

func TestDecodersAgreeOnEasyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	phi := denseDCT(48)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 3)
	locs, _ := RandomLocations(rng, 48, 24)
	y, _ := Measure(x, locs, rng, nil)
	omp, err := OMPOp(op, locs, y, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := BPDN(op, locs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	chs, err := CHSOp(op, locs, y, CHSOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"bp": bp, "chs": chs} {
		if d := mat.Norm2(mat.SubVec(r.Xhat, omp.Xhat)); d > 1e-6 {
			t.Fatalf("%s disagrees with OMP by %v", name, d)
		}
	}
}

func driftingPlumeSeq(w, h, steps int, drift float64) [][]float64 {
	seq := make([][]float64, steps)
	for t := range seq {
		f := field.GenPlumes(w, h, 10, []field.Plume{{
			Row: 4 + drift*float64(t), Col: 6 + drift*0.8*float64(t), Sigma: 2.2, Amplitude: 25,
		}})
		seq[t] = f.Vector()
	}
	return seq
}

// jointMeasure samples each step of seq at m random locations, with
// Gaussian noise of std-dev sigma (0: none), in joint-index form.
func jointMeasure(t *testing.T, seq [][]float64, m int, sigma float64, seed int64) JointMeasurements {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := len(seq[0])
	var sigmas []float64
	if sigma > 0 {
		sigmas = []float64{sigma}
	}
	jm := JointMeasurements{T: len(seq), N: n}
	for step, x := range seq {
		locs, err := RandomLocations(rng, n, m)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := Measure(x, locs, rng, sigmas)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range locs {
			jm.Locs = append(jm.Locs, step*n+l)
			jm.Y = append(jm.Y, ys[i])
		}
	}
	return jm
}

func TestJointSpatioTemporalBeatsPerStep(t *testing.T) {
	// Slowly drifting plume: joint decoding in the temporal⊗spatial basis
	// should beat decoding each step's readings alone at the same budget.
	proto := field.New(12, 12)
	phi, err := proto.Operator2D(basis.KindDCT)
	if err != nil {
		t.Fatal(err)
	}
	const m = 16
	seq := driftingPlumeSeq(12, 12, 8, 0.1)
	jm := jointMeasure(t, seq, m, 0, 1)
	recovered, _, err := DecodeSpatioTemporal(phi, jm, len(seq)*m/3)
	if err != nil {
		t.Fatal(err)
	}
	s, j := 0.0, 0.0
	for step, x := range seq {
		locs := make([]int, m)
		for i, l := range jm.Locs[step*m : (step+1)*m] {
			locs[i] = l - step*jm.N
		}
		res, err := OMPOp(phi, locs, jm.Y[step*m:(step+1)*m], m/3, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		s += NMSE(x, res.Xhat) / float64(len(seq))
		j += NMSE(x, recovered[step]) / float64(len(seq))
	}
	if j >= s {
		t.Fatalf("joint NMSE %v not below per-step %v", j, s)
	}
	if j > 0.05 {
		t.Fatalf("joint NMSE %v too large", j)
	}
}

func TestJointRecoveryWithNoise(t *testing.T) {
	proto := field.New(10, 10)
	phi, err := proto.Operator2D(basis.KindDCT)
	if err != nil {
		t.Fatal(err)
	}
	seq := driftingPlumeSeq(10, 10, 6, 0.2)
	jm := jointMeasure(t, seq, 20, 0.1, 2)
	recovered, _, err := DecodeSpatioTemporal(phi, jm, len(seq)*20/3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 6 || len(recovered[0]) != 100 {
		t.Fatal("recovered sequence shape wrong")
	}
	nm := 0.0
	for step, x := range seq {
		nm += NMSE(x, recovered[step]) / float64(len(seq))
	}
	if nm > 0.05 {
		t.Fatalf("noisy joint NMSE %v", nm)
	}
}

// TestBPDNScaleRelation: scaling the readings and eps by 2^±10 scales the
// solve exactly. α, x̂ and the residual scale bit for bit, with the same
// support and iteration count, both for exact basis pursuit and at the
// noise floor. It fails if the solve depends on the readings' absolute
// scale anywhere, say through an inexact rescale or an absolute floor.
// At 2^510 the squared norms of iterates left at the readings' scale
// overflow, and such a solve stops after two iterations far from the
// constraint.
func TestBPDNScaleRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	phi := denseDCT(64)
	op, err := basis.CachedOperator(basis.KindDCT, 64)
	if err != nil {
		t.Fatal(err)
	}
	x, _, _ := sparseSignal(rng, phi, 5)
	locs, _ := RandomLocations(rng, 64, 28)
	y, _ := Measure(x, locs, rng, []float64{0.02})
	for _, eps := range []float64{0, 0.02 * math.Sqrt(28)} {
		base, err := BPDN(op, locs, y, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []int{-10, 10, 510} {
			scale := func(v []float64) []float64 {
				out := make([]float64, len(v))
				for i, vi := range v {
					out[i] = math.Ldexp(vi, e)
				}
				return out
			}
			got, err := BPDN(op, locs, scale(y), math.Ldexp(eps, e))
			if err != nil {
				t.Fatal(err)
			}
			want := &Result{
				Alpha: scale(base.Alpha), Support: base.Support, Xhat: scale(base.Xhat),
				Residual: math.Ldexp(base.Residual, e), Iterations: base.Iterations,
			}
			if msg := sameResult(got, want); msg != "" {
				t.Errorf("eps %v, scale 2^%d: %s", eps, e, msg)
			}
		}
	}
}
