package energy

import (
	"math"
	"sync"
	"testing"

	"repro/internal/sensor"
)

func TestMeterChargesSamples(t *testing.T) {
	var m Meter
	m.ChargeSamples(sensor.GPS, 10)
	m.ChargeSamples(sensor.Accelerometer, 1000)
	gps := SampleMJ(sensor.GPS) * 10
	acc := SampleMJ(sensor.Accelerometer) * 1000
	if got := m.TotalMJ(); math.Abs(got-(gps+acc)) > 1e-9 {
		t.Fatalf("total %v, want %v", got, gps+acc)
	}
	bd := m.Breakdown()
	if math.Abs(bd["sense/gps"]-gps) > 1e-9 {
		t.Fatalf("breakdown %v", bd)
	}
}

func TestGPSSamplesDominateAccel(t *testing.T) {
	// The central premise of compressive GPS duty-cycling: a GPS fix is
	// orders of magnitude costlier than an accelerometer sample.
	if SampleMJ(sensor.GPS) < 1000*SampleMJ(sensor.Accelerometer) {
		t.Fatal("GPS/accelerometer cost ratio too small to be realistic")
	}
}

func TestMeterRadioCharges(t *testing.T) {
	var m Meter
	m.ChargeTx(RadioWiFi, 1000)
	want := wakeMJ[RadioWiFi] + 1000*txByteMJ[RadioWiFi]
	if got := m.TotalMJ(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tx cost %v, want %v", got, want)
	}
	m.ChargeRx(RadioBluetooth, 500)
	want += 500 * rxByteMJ[RadioBluetooth]
	if got := m.TotalMJ(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tx+rx cost %v, want %v", got, want)
	}
}

// TestMeterCategoryNames: the Breakdown keys are prefix/name for every
// radio and sensor kind, and a category charged nothing (zero samples,
// zero bytes on a radio without wake cost) is still listed.
func TestMeterCategoryNames(t *testing.T) {
	var m Meter
	want := map[string]bool{}
	for kind := sensor.Kind(0); kind < sensor.NumKinds; kind++ {
		m.ChargeSamples(kind, 1)
		want["sense/"+kind.String()] = true
	}
	for radio := RadioKind(0); radio < numRadios; radio++ {
		m.ChargeTx(radio, 1)
		m.ChargeRx(radio, 0)
		want["tx/"+radio.String()] = true
		want["rx/"+radio.String()] = true
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
	if bd["rx/gsm"] != 0 || bd["sense/temperature"] != sampleMJ[sensor.Temperature] {
		t.Fatalf("breakdown %v", bd)
	}
}

// TestZeroMeterCharges: a zero Meter is ready to use, and it reports only
// what was charged.
func TestZeroMeterCharges(t *testing.T) {
	var m Meter
	if m.TotalMJ() != 0 || len(m.Breakdown()) != 0 {
		t.Fatalf("zero meter reads %v, %v", m.TotalMJ(), m.Breakdown())
	}
	m.ChargeTx(RadioGSM, 10)
	m.ChargeSamples(sensor.Light, 0)
	bd := m.Breakdown()
	want := TxCostMJ(RadioGSM, 10)
	if len(bd) != 2 || bd["tx/gsm"] != want || bd["sense/light"] != 0 || m.TotalMJ() != want {
		t.Fatalf("after one GSM send and zero light samples: total %v, breakdown %v", m.TotalMJ(), bd)
	}
}

// TestMeterChargesDoNotAllocate: charging a radio or sensor kind
// allocates nothing.
func TestMeterChargesDoNotAllocate(t *testing.T) {
	var m Meter
	charge := func() {
		m.ChargeTx(RadioWiFi, 24)
		m.ChargeRx(RadioWiFi, 24)
		m.ChargeSamples(sensor.Temperature, 1)
	}
	if allocs := testing.AllocsPerRun(100, charge); allocs != 0 {
		t.Fatalf("%.1f allocs per tx+rx+sample charge, want 0", allocs)
	}
}

func TestMeterIdleAndReset(t *testing.T) {
	var m Meter
	m.ChargeIdle(10)
	want := 10.0 * IdlePerSecMJ
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

// TestMeterConcurrentSafety charges every kind of category from several
// goroutines beside readers; under -race it checks that the mutex guards
// the total, the category array and the charged flags alike.
func TestMeterConcurrentSafety(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.ChargeIdle(0.001)
				m.ChargeTx(RadioWiFi, 0)
				m.ChargeRx(RadioBluetooth, 0)
				m.ChargeSamples(sensor.Proximity, 0)
				if j%25 == 0 {
					m.Breakdown()
				}
			}
		}()
	}
	wg.Wait()
	idle := 800 * 0.001 * IdlePerSecMJ
	want := idle + 800*wakeMJ[RadioWiFi]
	if got := m.TotalMJ(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("concurrent total %v, want %v", got, want)
	}
	if bd := m.Breakdown(); len(bd) != 4 || math.Abs(bd["idle"]-idle) > 1e-6 {
		t.Fatalf("concurrent breakdown %v", bd)
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

// TestCostTablesCoverEveryKindAndRadio: every sensor kind and every
// radio has a positive cost, so no table entry was left out.
func TestCostTablesCoverEveryKindAndRadio(t *testing.T) {
	for k := sensor.Kind(0); k < sensor.NumKinds; k++ {
		if SampleMJ(k) <= 0 {
			t.Fatalf("no cost for sensor kind %s", k)
		}
	}
	for r := RadioKind(0); r < numRadios; r++ {
		if txByteMJ[r] <= 0 || rxByteMJ[r] <= 0 || wakeMJ[r] <= 0 {
			t.Fatalf("radio %s costs tx %v, rx %v, wake %v", r, txByteMJ[r], rxByteMJ[r], wakeMJ[r])
		}
	}
}

func TestTxCostMJ(t *testing.T) {
	want := wakeMJ[RadioWiFi] + 100*txByteMJ[RadioWiFi]
	if got := TxCostMJ(RadioWiFi, 100); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TxCostMJ=%v want %v", got, want)
	}
}

func TestChooseRadioPrefersCheapest(t *testing.T) {
	// Small payload: Bluetooth's tiny wake cost wins.
	r, cost, ok := ChooseRadio(50, []RadioKind{RadioWiFi, RadioBluetooth, RadioGSM})
	if !ok || r != RadioBluetooth {
		t.Fatalf("small payload chose %s (ok=%v)", r, ok)
	}
	if cost != TxCostMJ(RadioBluetooth, 50) {
		t.Fatalf("cost %v, want Bluetooth's %v", cost, TxCostMJ(RadioBluetooth, 50))
	}
	// Without Bluetooth in range, WiFi beats GSM at any size.
	r, _, ok = ChooseRadio(50, []RadioKind{RadioGSM, RadioWiFi})
	if !ok || r != RadioWiFi {
		t.Fatalf("fallback chose %s", r)
	}
	// Nothing available.
	if _, _, ok := ChooseRadio(50, nil); ok {
		t.Fatal("no radios should report !ok")
	}
}
