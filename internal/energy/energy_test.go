package energy

import (
	"math"
	"sync"
	"testing"

	"repro/internal/sensor"
)

func TestMeterChargesSamples(t *testing.T) {
	m := NewMeter(nil)
	if err := m.ChargeSamples(sensor.GPS, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.ChargeSamples(sensor.Accelerometer, 1000); err != nil {
		t.Fatal(err)
	}
	gps := DefaultModel().SensorSampleMJ[sensor.GPS] * 10
	acc := DefaultModel().SensorSampleMJ[sensor.Accelerometer] * 1000
	if got := m.TotalMJ(); math.Abs(got-(gps+acc)) > 1e-9 {
		t.Fatalf("total %v, want %v", got, gps+acc)
	}
	bd := m.Breakdown()
	if math.Abs(bd["sense/gps"]-gps) > 1e-9 {
		t.Fatalf("breakdown %v", bd)
	}
	if err := m.ChargeSamples(sensor.Kind("bogus"), 1); err == nil {
		t.Fatal("want unknown-kind error")
	}
}

func TestGPSSamplesDominateAccel(t *testing.T) {
	// The central premise of compressive GPS duty-cycling: a GPS fix is
	// orders of magnitude costlier than an accelerometer sample.
	model := DefaultModel()
	if model.SensorSampleMJ[sensor.GPS] < 1000*model.SensorSampleMJ[sensor.Accelerometer] {
		t.Fatal("GPS/accelerometer cost ratio too small to be realistic")
	}
}

func TestMeterRadioCharges(t *testing.T) {
	m := NewMeter(nil)
	if err := m.ChargeTx(RadioWiFi, 1000); err != nil {
		t.Fatal(err)
	}
	want := DefaultModel().RadioWakeMJ[RadioWiFi] + 1000*DefaultModel().RadioTxByteMJ[RadioWiFi]
	if got := m.TotalMJ(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tx cost %v, want %v", got, want)
	}
	if err := m.ChargeRx(RadioBluetooth, 500); err != nil {
		t.Fatal(err)
	}
	if err := m.ChargeTx(RadioKind("laser"), 1); err == nil {
		t.Fatal("want unknown-radio error")
	}
	if err := m.ChargeRx(RadioKind("laser"), 1); err == nil {
		t.Fatal("want unknown-radio error")
	}
}

// TestMeterCategoryNames: the Breakdown keys are prefix/name for every
// radio and sensor kind, whether the name was built ahead of the charge
// (the default model's radios and kinds) or during it (a kind only a
// custom model prices).
func TestMeterCategoryNames(t *testing.T) {
	model := DefaultModel()
	model.SensorSampleMJ[sensor.Kind("custom")] = 1
	m := NewMeter(model)
	want := map[string]bool{"sense/custom": true}
	if err := m.ChargeSamples(sensor.Kind("custom"), 1); err != nil {
		t.Fatal(err)
	}
	for kind := range DefaultModel().SensorSampleMJ {
		if err := m.ChargeSamples(kind, 1); err != nil {
			t.Fatal(err)
		}
		want["sense/"+string(kind)] = true
	}
	for _, radio := range []RadioKind{RadioWiFi, RadioBluetooth, RadioGSM} {
		if err := m.ChargeTx(radio, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.ChargeRx(radio, 1); err != nil {
			t.Fatal(err)
		}
		want["tx/"+string(radio)] = true
		want["rx/"+string(radio)] = true
	}
	bd := m.Breakdown()
	if len(bd) != len(want) {
		t.Fatalf("breakdown has %d categories, want %d: %v", len(bd), len(want), bd)
	}
	for k := range want {
		if _, ok := bd[k]; !ok {
			t.Fatalf("breakdown lacks %q: %v", k, bd)
		}
	}
}

// TestMeterChargesDoNotAllocate: charging a known radio or sensor kind
// into a category the meter already holds allocates nothing.
func TestMeterChargesDoNotAllocate(t *testing.T) {
	m := NewMeter(nil)
	charge := func() {
		_ = m.ChargeTx(RadioWiFi, 24)
		_ = m.ChargeRx(RadioWiFi, 24)
		_ = m.ChargeSamples(sensor.Temperature, 1)
	}
	if allocs := testing.AllocsPerRun(100, charge); allocs != 0 {
		t.Fatalf("%.1f allocs per tx+rx+sample charge, want 0", allocs)
	}
}

func TestMeterIdleAndReset(t *testing.T) {
	m := NewMeter(nil)
	m.ChargeIdle(10)
	want := 10 * DefaultModel().IdlePerSecMJ
	if got := m.TotalMJ(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("total %v want %v", got, want)
	}
	if bd := m.Breakdown(); len(bd) != 1 || bd["idle"] != want {
		t.Fatalf("breakdown %v", bd)
	}
	m.Reset()
	if m.TotalMJ() != 0 || len(m.Breakdown()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestMeterConcurrentSafety(t *testing.T) {
	m := NewMeter(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.ChargeIdle(0.001)
			}
		}()
	}
	wg.Wait()
	want := 800 * 0.001 * DefaultModel().IdlePerSecMJ
	if got := m.TotalMJ(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("concurrent total %v, want %v", got, want)
	}
}

func TestSavingsPercent(t *testing.T) {
	if v := SavingsPercent(100, 20); math.Abs(v-80) > 1e-12 {
		t.Fatalf("savings %v, want 80", v)
	}
	if v := SavingsPercent(100, 120); math.Abs(v+20) > 1e-12 {
		t.Fatalf("negative savings %v, want -20", v)
	}
	if SavingsPercent(0, 50) != 0 {
		t.Fatal("zero baseline should give 0")
	}
}

func TestDefaultModelCoversAllSensorKinds(t *testing.T) {
	model := DefaultModel()
	kinds := []sensor.Kind{
		sensor.Accelerometer, sensor.Gyroscope, sensor.Magnetometer,
		sensor.GPS, sensor.WiFi, sensor.Temperature, sensor.Microphone,
		sensor.Barometer, sensor.Light, sensor.Humidity, sensor.Proximity,
	}
	for _, k := range kinds {
		if _, ok := model.SensorSampleMJ[k]; !ok {
			t.Fatalf("no cost for sensor kind %s", k)
		}
	}
	for _, r := range []RadioKind{RadioWiFi, RadioBluetooth, RadioGSM} {
		if _, ok := model.RadioTxByteMJ[r]; !ok {
			t.Fatalf("no tx cost for radio %s", r)
		}
		if _, ok := model.RadioRxByteMJ[r]; !ok {
			t.Fatalf("no rx cost for radio %s", r)
		}
	}
}

func TestTxCostMJ(t *testing.T) {
	m := DefaultModel()
	want := m.RadioWakeMJ[RadioWiFi] + 100*m.RadioTxByteMJ[RadioWiFi]
	if got := m.TxCostMJ(RadioWiFi, 100); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TxCostMJ=%v want %v", got, want)
	}
	if !math.IsInf(m.TxCostMJ(RadioKind("laser"), 10), 1) {
		t.Fatal("unknown radio should cost +Inf")
	}
}

func TestChooseRadioPrefersCheapest(t *testing.T) {
	m := DefaultModel()
	// Small payload: Bluetooth's tiny wake cost wins.
	r, cost, ok := m.ChooseRadio(50, []RadioKind{RadioWiFi, RadioBluetooth, RadioGSM})
	if !ok || r != RadioBluetooth {
		t.Fatalf("small payload chose %s (ok=%v)", r, ok)
	}
	if cost <= 0 {
		t.Fatal("cost should be positive")
	}
	// Without Bluetooth in range, WiFi beats GSM at any size.
	r, _, ok = m.ChooseRadio(50, []RadioKind{RadioWiFi, RadioGSM})
	if !ok || r != RadioWiFi {
		t.Fatalf("fallback chose %s", r)
	}
	// Nothing available.
	if _, _, ok := m.ChooseRadio(50, nil); ok {
		t.Fatal("no radios should report !ok")
	}
	if _, _, ok := m.ChooseRadio(50, []RadioKind{RadioKind("laser")}); ok {
		t.Fatal("only-unknown radios should report !ok")
	}
}
