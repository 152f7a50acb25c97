package sensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func constModel(v float64) Model {
	return func(t float64, axis int) float64 { return v }
}

func TestNewProbeValidation(t *testing.T) {
	m := constModel(1)
	cases := []struct {
		name  string
		axes  int
		cfg   Config
		model Model
	}{
		{"", 1, Config{RateHz: 1}, m},
		{"p", 0, Config{RateHz: 1}, m},
		{"p", 1, Config{RateHz: 0}, m},
		{"p", 1, Config{RateHz: 1}, nil},
	}
	for i, c := range cases {
		if _, err := NewProbe(c.name, Temperature, c.axes, c.cfg, c.model); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
	if _, err := NewProbe("ok", Temperature, 1, Config{RateHz: 1}, m); err != nil {
		t.Fatalf("valid probe rejected: %v", err)
	}
}

func TestProbeSamplingAdvancesTime(t *testing.T) {
	p, _ := NewProbe("p", Temperature, 1, Config{RateHz: 4}, constModel(20))
	s0 := p.Next()
	s1 := p.Next()
	if s0.T != 0 || math.Abs(s1.T-0.25) > 1e-12 {
		t.Fatalf("timestamps %v %v", s0.T, s1.T)
	}
}

// With noise, repeated Reset gives an identical stream.
func TestProbeNoiseReplaysAfterReset(t *testing.T) {
	pn, _ := NewProbe("pn", Temperature, 1, Config{RateHz: 10, NoiseSigma: 0.5, Seed: 42}, constModel(0))
	a, _ := pn.CollectAxis(32, 0)
	pn.Reset()
	b, _ := pn.CollectAxis(32, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Reset did not replay the noise stream")
		}
	}
	if mat.Variance(a) == 0 {
		t.Fatal("noise had no effect")
	}
}

// The noise stream is seeded on first use. What a seed means must not
// depend on when that happens: a fresh probe, a probe that was Reset
// before its first sample, and a generator seeded eagerly the way
// NewProbe used to all walk the same draws, axis by axis.
func TestProbeLazySeedMatchesEagerStream(t *testing.T) {
	cfg := Config{RateHz: 5, NoiseSigma: 0.3, Seed: 99}
	fresh, _ := NewProbe("fresh", Accelerometer, 3, cfg, constModel(1))
	reset, _ := NewProbe("reset", Accelerometer, 3, cfg, constModel(1))
	reset.Reset()
	eager := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 64; i++ {
		f, r := fresh.Next(), reset.Next()
		for a := 0; a < 3; a++ {
			want := 1 + eager.NormFloat64()*cfg.NoiseSigma
			if f.Values[a] != want || r.Values[a] != want {
				t.Fatalf("sample %d axis %d: fresh %v, reset-first %v, eager stream %v", i, a, f.Values[a], r.Values[a], want)
			}
		}
	}
	// A noiseless probe never needs a generator at all.
	quiet, _ := NewProbe("quiet", Temperature, 1, Config{RateHz: 1, Seed: 7}, constModel(3))
	for i := 0; i < 8; i++ {
		quiet.Next()
	}
	if quiet.rng != nil {
		t.Fatal("noiseless probe seeded a generator it never draws from")
	}
}

func TestCollectAxisRange(t *testing.T) {
	p, _ := NewProbe("p", Accelerometer, 3, Config{RateHz: 1}, constModel(1))
	if _, err := p.CollectAxis(4, 3); err == nil {
		t.Fatal("want axis range error")
	}
	xs, err := p.CollectAxis(4, 1)
	if err != nil || len(xs) != 4 {
		t.Fatalf("CollectAxis: %v len=%d", err, len(xs))
	}
}

func TestMotionScenariosSeparable(t *testing.T) {
	variances := map[MotionScenario]float64{}
	for _, s := range []MotionScenario{MotionIdle, MotionWalking, MotionDriving} {
		m, err := AccelModel(s)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := NewProbe("a", Accelerometer, 3, Config{RateHz: 64, Seed: 1}, m)
		xs, _ := p.CollectAxis(256, 2)
		variances[s] = mat.Variance(xs)
	}
	if variances[MotionIdle] > 0.01 {
		t.Fatalf("idle variance %v too large", variances[MotionIdle])
	}
	if variances[MotionWalking] < 10*variances[MotionIdle] {
		t.Fatal("walking not separable from idle")
	}
	if variances[MotionDriving] < 10*variances[MotionIdle] {
		t.Fatal("driving not separable from idle")
	}
}

func TestAccelModelUnknownScenario(t *testing.T) {
	if _, err := AccelModel(MotionScenario("flying")); err == nil {
		t.Fatal("want error")
	}
	if _, err := GyroModel(MotionScenario("flying")); err == nil {
		t.Fatal("want error")
	}
}

func TestGPSWiFiIndoorOutdoorSignature(t *testing.T) {
	indoor := func(t float64) bool { return true }
	outdoor := func(t float64) bool { return false }
	gIn, gOut := GPSModel(indoor), GPSModel(outdoor)
	if gIn(0, 0) >= gOut(0, 0) {
		t.Fatal("indoor should see fewer satellites")
	}
	if gIn(0, 1) <= gOut(0, 1) {
		t.Fatal("indoor should have worse accuracy")
	}
	wIn, wOut := WiFiModel(indoor), WiFiModel(outdoor)
	if wIn(0, 0) <= wOut(0, 0) {
		t.Fatal("indoor RSSI should be stronger (less negative)")
	}
	if wIn(0, 1) <= wOut(0, 1) {
		t.Fatal("indoor should see more APs")
	}
}

func TestAlternatingSchedule(t *testing.T) {
	s := AlternatingSchedule(10)
	if !s(5) || s(15) || !s(25) {
		t.Fatal("alternation wrong")
	}
	always := AlternatingSchedule(0)
	if !always(123) {
		t.Fatal("zero period should be always-true")
	}
}

func TestEnvironmentalModels(t *testing.T) {
	temp := TempModel(20, 5, 1)
	if v := temp(0, 0); math.Abs(v-20) > 1e-9 {
		t.Fatalf("temp at t=0: %v", v)
	}
	if v := temp(86400.0/4, 0); math.Abs(v-25) > 1e-9 {
		t.Fatalf("temp at quarter day: %v", v)
	}
	baro := BaroModel(0)
	if v := baro(0, 0); math.Abs(v-1013.25) > 2 {
		t.Fatalf("sea-level pressure %v", v)
	}
	baroHigh := BaroModel(2000)
	if baroHigh(0, 0) >= baro(0, 0) {
		t.Fatal("pressure should drop with altitude")
	}
	light := LightModel(func(t float64) bool { return t < 10 })
	if light(0, 0) >= light(20, 0) {
		t.Fatal("outdoor light should exceed indoor")
	}
	prox := ProximityModel(func(t float64) bool { return t < 1 }, 5)
	if prox(0, 0) != 0 || prox(2, 0) != 5 {
		t.Fatal("proximity model wrong")
	}
	mic := MicModel(40, 20)
	if v := mic(0, 0); v < 40 || v > 60 {
		t.Fatalf("mic level %v outside range", v)
	}
	hum := HumidityModel(50, 10)
	if v := hum(0, 0); math.Abs(v-50) > 1e-9 {
		t.Fatalf("humidity %v", v)
	}
}

func TestDeviceProfiles(t *testing.T) {
	cfg := Config{RateHz: 1, NoiseSigma: 0.1}
	if ProfileFlagship.Apply(cfg).NoiseSigma >= ProfileBudget.Apply(cfg).NoiseSigma {
		t.Fatal("flagship should be quieter than budget")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	p1, _ := NewProbe("a/temp", Temperature, 1, Config{RateHz: 1}, constModel(1))
	p2, _ := NewProbe("a/accel", Accelerometer, 3, Config{RateHz: 1}, constModel(0))
	if err := reg.Register(p1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(p2); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(p1); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	if got := reg.List(); len(got) != 2 || got[0] != "a/accel" {
		t.Fatalf("List=%v", got)
	}
	if _, ok := reg.Get("a/temp"); !ok {
		t.Fatal("Get failed")
	}
	if ps := reg.ByKind(Temperature); len(ps) != 1 || ps[0].Name() != "a/temp" {
		t.Fatalf("ByKind=%v", ps)
	}
}

// First is ByKind's head without the list: the lowest name of the kind,
// and nothing for a kind with no probe.
func TestRegistryFirstIsByKindHead(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"n/temp2", "n/temp0", "n/temp1"} {
		p, err := NewProbe(name, Temperature, 1, Config{RateHz: 1}, constModel(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if p, ok := reg.First(Temperature); !ok || p != reg.ByKind(Temperature)[0] || p.Name() != "n/temp0" {
		t.Fatalf("First(Temperature) = %v, %v", p, ok)
	}
	if p, ok := reg.First(Light); ok || p != nil {
		t.Fatalf("First(Light) = %v, %v on a registry with no light probe", p, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { reg.First(Temperature) }); allocs != 0 {
		t.Fatalf("First allocates %.1f per call", allocs)
	}
}

func TestStandardPhoneFullComplement(t *testing.T) {
	reg, err := StandardPhone("n0", 7, ProfileMidrange, MotionWalking, AlternatingSchedule(600))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 11 {
		t.Fatalf("probe count %d, want 11", reg.Len())
	}
	for _, kind := range []Kind{Accelerometer, Gyroscope, Magnetometer, GPS, WiFi,
		Temperature, Microphone, Barometer, Light, Humidity, Proximity} {
		if ps := reg.ByKind(kind); len(ps) != 1 {
			t.Fatalf("missing probe kind %s", kind)
		}
	}
}

func TestFuseOrientationFlatNorth(t *testing.T) {
	// Device flat (gravity on +z), magnetometer pointing north on y.
	o, err := FuseOrientation([]float64{0, 0, 9.81}, []float64{0, 24, -41.6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.Pitch) > 1e-9 || math.Abs(o.Roll) > 1e-9 {
		t.Fatalf("flat device should have zero pitch/roll: %+v", o)
	}
	if math.Abs(o.Azimuth) > 1e-9 {
		t.Fatalf("north-facing azimuth %v, want 0", o.Azimuth)
	}
}

func TestFuseOrientationEast(t *testing.T) {
	// Facing east: horizontal field appears on device +x.
	o, err := FuseOrientation([]float64{0, 0, 9.81}, []float64{24, 0, -41.6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.Azimuth-math.Pi/2) > 1e-9 {
		t.Fatalf("east azimuth %v, want π/2", o.Azimuth)
	}
}

func TestFuseOrientationErrors(t *testing.T) {
	if _, err := FuseOrientation([]float64{1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("want axis error")
	}
	if _, err := FuseOrientation([]float64{0, 0, 0}, []float64{1, 2, 3}); err == nil {
		t.Fatal("want zero-gravity error")
	}
}

func TestCompassVirtualProbeTracksHeading(t *testing.T) {
	// Heading fixed at π/4; fused compass should recover it within noise.
	heading := func(t float64) float64 { return math.Pi / 4 }
	accel, _ := NewProbe("a", Accelerometer, 3, Config{RateHz: 8, Seed: 1},
		func(t float64, axis int) float64 {
			if axis == 2 {
				return 9.81
			}
			return 0
		})
	mag, _ := NewProbe("m", Magnetometer, 3, Config{RateHz: 8, NoiseSigma: 0.2, Seed: 2}, MagModel(heading))
	compass, err := NewCompassProbe("compass", accel, mag)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const n = 64
	for i := 0; i < n; i++ {
		h, err := compass.Next()
		if err != nil {
			t.Fatal(err)
		}
		sum += h
	}
	if got := sum / n; math.Abs(got-math.Pi/4) > 0.05 {
		t.Fatalf("mean heading %v, want π/4", got)
	}
}

func TestNewCompassProbeValidation(t *testing.T) {
	a, _ := NewProbe("a", Accelerometer, 3, Config{RateHz: 1}, constModel(0))
	if _, err := NewCompassProbe("c", a, a); err == nil {
		t.Fatal("want kind error")
	}
	if _, err := NewCompassProbe("c", nil, nil); err == nil {
		t.Fatal("want nil error")
	}
}

func BenchmarkProbeNext(b *testing.B) {
	m, _ := AccelModel(MotionDriving)
	p, _ := NewProbe("a", Accelerometer, 3, Config{RateHz: 64, NoiseSigma: 0.05, Seed: 1}, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Next()
	}
}
