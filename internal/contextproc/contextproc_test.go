package contextproc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/sensor"
)

// window collects n vertical-axis accelerometer samples for a scenario.
func window(t *testing.T, s sensor.MotionScenario, n int, noise float64, seed int64) []float64 {
	t.Helper()
	m, err := sensor.AccelModel(s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sensor.NewProbe("a", sensor.Accelerometer, 3,
		sensor.Config{RateHz: 64, NoiseSigma: noise, Seed: seed}, m)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := p.CollectAxis(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	return xs
}

func TestExtractValidation(t *testing.T) {
	if _, err := Extract([]float64{1, 2}, 10); err == nil {
		t.Fatal("want short-window error")
	}
	if _, err := Extract([]float64{1, 2, 3, 4}, 0); err == nil {
		t.Fatal("want rate error")
	}
}

func TestExtractKnownSinusoid(t *testing.T) {
	// 4 Hz sinusoid sampled at 64 Hz.
	n, rate := 128, 64.0
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 3 + 2*math.Sin(2*math.Pi*4*float64(i)/rate)
	}
	f, err := Extract(xs, rate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Mean-3) > 1e-9 {
		t.Fatalf("mean %v", f.Mean)
	}
	if math.Abs(f.Variance-2) > 0.05 { // amplitude²/2
		t.Fatalf("variance %v, want ~2", f.Variance)
	}
	if math.Abs(f.DominantHz-4) > 0.51 {
		t.Fatalf("dominant %v Hz, want 4", f.DominantHz)
	}
	// A 4 Hz sinusoid crosses its mean 8 times per second.
	if math.Abs(f.ZeroCrossHz-8) > 1 {
		t.Fatalf("zero-cross %v Hz, want ~8", f.ZeroCrossHz)
	}
	if math.Abs(f.PeakToPeak-4) > 0.01 {
		t.Fatalf("peak-to-peak %v, want 4", f.PeakToPeak)
	}
}

func TestClassifyActivityScenarios(t *testing.T) {
	cases := map[sensor.MotionScenario]Activity{
		sensor.MotionIdle:    ActivityIdle,
		sensor.MotionWalking: ActivityWalking,
		sensor.MotionDriving: ActivityDriving,
	}
	for scen, want := range cases {
		xs := window(t, scen, 256, 0.05, 3)
		f, err := Extract(xs, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := ClassifyActivity(f); got != want {
			t.Fatalf("%s classified as %s (features %+v)", scen, got, f)
		}
	}
}

func TestIsDriving(t *testing.T) {
	xs := window(t, sensor.MotionDriving, 256, 0.05, 4)
	f, _ := Extract(xs, 64)
	if ClassifyActivity(f) != ActivityDriving {
		t.Fatal("driving window not detected")
	}
	xs = window(t, sensor.MotionIdle, 256, 0.05, 5)
	f, _ = Extract(xs, 64)
	if ClassifyActivity(f) == ActivityDriving {
		t.Fatal("idle window misdetected as driving")
	}
}

func TestIsIndoor(t *testing.T) {
	indoor := EnvReading{GPSSatellites: 2, GPSAccuracyM: 45, WiFiRSSIdBm: -45, WiFiAPCount: 8}
	outdoor := EnvReading{GPSSatellites: 9, GPSAccuracyM: 4, WiFiRSSIdBm: -86, WiFiAPCount: 1}
	if !IsIndoor(indoor) {
		t.Fatal("indoor reading not detected")
	}
	if IsIndoor(outdoor) {
		t.Fatal("outdoor reading misdetected")
	}
	// Partial evidence: weak GPS alone (2 votes) is already indoor.
	partial := EnvReading{GPSSatellites: 2, GPSAccuracyM: 45, WiFiRSSIdBm: -90, WiFiAPCount: 0}
	if !IsIndoor(partial) {
		t.Fatal("GPS-only indoor evidence not detected")
	}
}

func TestNewPipelineValidation(t *testing.T) {
	phi, err := basis.OperatorFor(basis.KindDCT, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(nil, 10, 5); err == nil {
		t.Fatal("want nil-basis error")
	}
	if _, err := NewPipeline(phi, 0, 5); err == nil {
		t.Fatal("want m error")
	}
	if _, err := NewPipeline(phi, 65, 5); err == nil {
		t.Fatal("want m>n error")
	}
	if _, err := NewPipeline(phi, 10, 0); err == nil {
		t.Fatal("want k error")
	}
	if _, err := NewPipeline(phi, 10, 11); err == nil {
		t.Fatal("want k>m error")
	}
}

func TestPipelineReconstructDrivingWindow(t *testing.T) {
	// The paper's Fig. 4 setting: 256-sample accelerometer window, 30
	// random samples, reconstruction good enough to classify.
	xs := window(t, sensor.MotionDriving, 256, 0.02, 6)
	phi, err := basis.OperatorFor(basis.KindDFT, 256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(phi, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	comp, full, nmse, err := p.ClassifyCompressive(xs, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	if full != ActivityDriving {
		t.Fatalf("full-window classification %s", full)
	}
	if comp != full {
		t.Fatalf("compressive classification %s != full %s (NMSE %v)", comp, full, nmse)
	}
	if nmse > 0.3 {
		t.Fatalf("reconstruction NMSE %v too large", nmse)
	}
}

func TestPipelineWindowLengthError(t *testing.T) {
	op, err := basis.OperatorFor(basis.KindDCT, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPipeline(op, 16, 4)
	if _, _, err := p.Reconstruct(make([]float64, 32), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want window length error")
	}
}

func TestFuseGroup(t *testing.T) {
	members := []MemberContext{
		{Member: "a", Activity: ActivityWalking, Stress: 0.2, Indoor: true},
		{Member: "b", Activity: ActivityWalking, Stress: 0.4, Indoor: false},
		{Member: "c", Activity: ActivityDriving, Stress: 0.6, Indoor: false},
	}
	g, err := FuseGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size != 3 || g.MajorityAct != ActivityWalking {
		t.Fatalf("group %+v", g)
	}
	if math.Abs(g.StressQuotient-0.4) > 1e-9 {
		t.Fatalf("stress quotient %v", g.StressQuotient)
	}
	if math.Abs(g.IndoorFraction-1.0/3) > 1e-9 {
		t.Fatalf("indoor fraction %v", g.IndoorFraction)
	}
	if _, err := FuseGroup(nil); err == nil {
		t.Fatal("want empty-group error")
	}
}

func TestStressIndex(t *testing.T) {
	if v := StressIndex(35, ActivityIdle); v != 0 {
		t.Fatalf("quiet idle stress %v", v)
	}
	if v := StressIndex(95, ActivityDriving); v != 1 {
		t.Fatalf("loud driving stress %v, want clamp 1", v)
	}
	if StressIndex(60, ActivityDriving) <= StressIndex(60, ActivityWalking) {
		t.Fatal("driving should add stress")
	}
}

func BenchmarkExtract256(b *testing.B) {
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = math.Sin(2*math.Pi*2*float64(i)/64) + 0.1*math.Sin(2*math.Pi*11*float64(i)/64)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(xs, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineClassify(b *testing.B) {
	m, _ := sensor.AccelModel(sensor.MotionDriving)
	p, _ := sensor.NewProbe("a", sensor.Accelerometer, 3, sensor.Config{RateHz: 64, Seed: 1}, m)
	xs, _ := p.CollectAxis(256, 2)
	phi, err := basis.OperatorFor(basis.KindDFT, 256)
	if err != nil {
		b.Fatal(err)
	}
	pipe, _ := NewPipeline(phi, 30, 8)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := pipe.ClassifyCompressive(xs, 64, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCountStepsWalking(t *testing.T) {
	// 4 s of walking at 64 Hz with a 2 Hz gait → ~8 steps.
	xs := window(t, sensor.MotionWalking, 256, 0.05, 60)
	steps, err := CountSteps(xs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if steps < 6 || steps > 10 {
		t.Fatalf("steps %d over 4 s of 2 Hz gait, want ~8", steps)
	}
	cad, err := Cadence(xs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cad < 1.5 || cad > 2.5 {
		t.Fatalf("cadence %v steps/s, want ~2", cad)
	}
}

func TestCountStepsIdleIsZero(t *testing.T) {
	xs := window(t, sensor.MotionIdle, 256, 0.05, 61)
	steps, err := CountSteps(xs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 0 {
		t.Fatalf("idle window counted %d steps", steps)
	}
}

func TestCountStepsValidation(t *testing.T) {
	if _, err := CountSteps([]float64{1, 2}, 64); err == nil {
		t.Fatal("want short-window error")
	}
	if _, err := CountSteps(make([]float64, 64), 0); err == nil {
		t.Fatal("want rate error")
	}
}
