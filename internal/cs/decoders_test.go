package cs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/field"
	"repro/internal/mat"
)

func TestIHTExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	phi := basis.DCT(64)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 4)
	locs, _ := RandomLocations(rng, 64, 28)
	y, _ := Measure(x, locs, rng, nil)
	res, err := IHTOp(op, locs, y, IHTOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-8 {
		t.Fatalf("IHT NMSE %v", nm)
	}
	if len(res.Support) > 4 {
		t.Fatalf("IHT support %d", len(res.Support))
	}
}

func TestIHTValidation(t *testing.T) {
	phi := basis.DCT(16)
	op := denseOp(t, phi)
	if _, err := IHTOp(op, []int{1, 2}, []float64{1, 2}, IHTOptions{}); err == nil {
		t.Fatal("want K error")
	}
	if _, err := IHTOp(op, []int{1}, []float64{1, 2}, IHTOptions{K: 1}); err == nil {
		t.Fatal("want length error")
	}
	if _, err := IHTOp(op, nil, nil, IHTOptions{K: 1}); err == nil {
		t.Fatal("want measurements error")
	}
}

func TestCoSaMPExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	phi := basis.DCT(64)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 4)
	locs, _ := RandomLocations(rng, 64, 30)
	y, _ := Measure(x, locs, rng, nil)
	res, err := CoSaMPOp(op, locs, y, CoSaMPOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-10 {
		t.Fatalf("CoSaMP NMSE %v", nm)
	}
}

func TestCoSaMPClampsK(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	phi := basis.DCT(32)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 2)
	locs, _ := RandomLocations(rng, 32, 9)
	y, _ := Measure(x, locs, rng, nil)
	// 3K > m forces an internal clamp rather than an error.
	res, err := CoSaMPOp(op, locs, y, CoSaMPOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) > 3 {
		t.Fatalf("clamped support %d", len(res.Support))
	}
	if _, err := CoSaMPOp(op, locs, y, CoSaMPOptions{}); err == nil {
		t.Fatal("want K error")
	}
}

func TestCoSaMPNoisyComparable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	phi := basis.DCT(128)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 5)
	locs, _ := RandomLocations(rng, 128, 50)
	y, _ := Measure(x, locs, rng, []float64{0.02})
	res, err := CoSaMPOp(op, locs, y, CoSaMPOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 0.02 {
		t.Fatalf("noisy CoSaMP NMSE %v", nm)
	}
}

func TestBPDNToleratesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	phi := basis.DCT(32)
	x, _, _ := sparseSignal(rng, phi, 3)
	locs, _ := RandomLocations(rng, 32, 16)
	sigma := 0.05
	y, _ := Measure(x, locs, rng, []float64{sigma})
	eps := 2 * sigma
	res, err := BPDN(phi, locs, y, eps, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 0.1 {
		t.Fatalf("BPDN NMSE %v", nm)
	}
	// Fidelity box respected at the sensors.
	a, _ := mat.SelectRows(phi, locs)
	pred, _ := mat.MulVec(a, res.Alpha)
	for i := range y {
		if math.Abs(pred[i]-y[i]) > eps+1e-6 {
			t.Fatalf("fidelity violated at %d: %v", i, math.Abs(pred[i]-y[i]))
		}
	}
}

func TestBPDNZeroEpsFallsBackToBP(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	phi := basis.DCT(24)
	x, _, _ := sparseSignal(rng, phi, 2)
	locs, _ := RandomLocations(rng, 24, 10)
	y, _ := Measure(x, locs, rng, nil)
	res, err := BPDN(phi, locs, y, 0, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-8 {
		t.Fatalf("BPDN(eps=0) NMSE %v", nm)
	}
	if _, err := BPDN(phi, locs, y, -1, 1e-7); err == nil {
		t.Fatal("want eps error")
	}
}

func TestDecodersAgreeOnEasyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	phi := basis.DCT(48)
	op := denseOp(t, phi)
	x, _, _ := sparseSignal(rng, phi, 3)
	locs, _ := RandomLocations(rng, 48, 24)
	y, _ := Measure(x, locs, rng, nil)
	omp, err := OMPOp(op, locs, y, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	iht, err := IHTOp(op, locs, y, IHTOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	cosamp, err := CoSaMPOp(op, locs, y, CoSaMPOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"iht": iht, "cosamp": cosamp} {
		if d := mat.Norm2(mat.SubVec(r.Xhat, omp.Xhat)); d > 1e-6 {
			t.Fatalf("%s disagrees with OMP by %v", name, d)
		}
	}
}

func TestHardThresholdAndTopK(t *testing.T) {
	v := []float64{1, -5, 3, 0.5}
	hardThresholdWith(v, 2, make([]int, len(v)), make([]bool, len(v)))
	if v[0] != 0 || v[1] != -5 || v[2] != 3 || v[3] != 0 {
		t.Fatalf("hardThresholdWith got %v", v)
	}
	if got := topKIndicesInto([]float64{1, 2}, 0, make([]int, 2)); got != nil {
		t.Fatalf("topK(0)=%v", got)
	}
	if got := topKIndicesInto([]float64{1, 2}, 5, make([]int, 2)); len(got) != 2 {
		t.Fatalf("topK over-len=%v", got)
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

func TestJointSpatioTemporalBeatsPerStep(t *testing.T) {
	// Slowly drifting plume: joint decoding in the temporal⊗spatial basis
	// should beat independent per-step decoding at the same total budget.
	proto := field.New(12, 12)
	phi, err := proto.Operator2D(basis.KindDCT)
	if err != nil {
		t.Fatal(err)
	}
	seq := driftingPlumeSeq(12, 12, 8, 0.1)
	static, _, err := RecoverSequence(phi, seq, SequenceOptions{M: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	joint, _, err := RecoverSpatioTemporal(phi, seq, SpatioTemporalOptions{M: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, j := MeanNMSE(static), MeanNMSE(joint)
	if j >= s {
		t.Fatalf("joint NMSE %v not below static %v", j, s)
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
	joint, recovered, err := RecoverSpatioTemporal(phi, seq, SpatioTemporalOptions{
		M: 20, NoiseSigma: 0.1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 6 || len(recovered[0]) != 100 {
		t.Fatal("recovered sequence shape wrong")
	}
	if nm := MeanNMSE(joint); nm > 0.05 {
		t.Fatalf("noisy joint NMSE %v", nm)
	}
}

func TestRecoverSequenceValidation(t *testing.T) {
	phi, err := basis.OperatorFor(basis.KindDCT, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverSequence(phi, nil, SequenceOptions{M: 4}); err == nil {
		t.Fatal("want empty error")
	}
	if _, _, err := RecoverSequence(phi, [][]float64{make([]float64, 8)}, SequenceOptions{M: 4}); err == nil {
		t.Fatal("want length error")
	}
	if _, _, err := RecoverSequence(phi, [][]float64{make([]float64, 16)}, SequenceOptions{}); err == nil {
		t.Fatal("want M error")
	}
	if _, _, err := RecoverSpatioTemporal(phi, nil, SpatioTemporalOptions{M: 4}); err == nil {
		t.Fatal("want empty error")
	}
	if _, _, err := RecoverSpatioTemporal(phi, [][]float64{make([]float64, 16)}, SpatioTemporalOptions{}); err == nil {
		t.Fatal("want M error")
	}
}

func TestOMPCentered(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	phi := basis.DCT(32)
	op := denseOp(t, phi)
	// Signal = mean + sparse deviation.
	mu := make([]float64, 32)
	for i := range mu {
		mu[i] = 5
	}
	dev, _, _ := sparseSignal(rng, phi, 2)
	x := mat.AddVec(mu, dev)
	locs, _ := RandomLocations(rng, 32, 14)
	y, _ := Measure(x, locs, rng, nil)
	res, err := OMPCenteredOp(op, locs, y, mu, 2, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if nm := NMSE(x, res.Xhat); nm > 1e-10 {
		t.Fatalf("centered NMSE %v", nm)
	}
	if _, err := OMPCenteredOp(op, locs, y, mu[:3], 2, 0); err == nil {
		t.Fatal("want mean-length error")
	}
}

func BenchmarkIHT256(b *testing.B) {
	rng := rand.New(rand.NewSource(39))
	phi := basis.DCT(256)
	op := denseOp(b, phi)
	x, _, _ := sparseSignal(rng, phi, 8)
	locs, _ := RandomLocations(rng, 256, 48)
	y, _ := Measure(x, locs, rng, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IHTOp(op, locs, y, IHTOptions{K: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoSaMP256(b *testing.B) {
	rng := rand.New(rand.NewSource(40))
	phi := basis.DCT(256)
	op := denseOp(b, phi)
	x, _, _ := sparseSignal(rng, phi, 8)
	locs, _ := RandomLocations(rng, 256, 48)
	y, _ := Measure(x, locs, rng, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CoSaMPOp(op, locs, y, CoSaMPOptions{K: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
