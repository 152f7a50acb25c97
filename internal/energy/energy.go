// Package energy provides the component energy model and per-node battery
// accounting used to evaluate SenseDroid's energy claims. Since there is
// no physical battery to measure, costs are charged per event (sensor
// sample, radio byte, idle second) from a table whose magnitudes follow
// published smartphone measurements; the paper's energy results are
// relative (percent savings), which a consistent component model
// preserves.
package energy

import (
	"sync"

	"repro/internal/sensor"
)

// RadioKind names a network interface with its own energy profile — the
// paper's "multiple networks like WiFi, GSM, bluetooth". Not a byte, so
// vet flags string(r).
type RadioKind uint16

// Supported radios.
const (
	RadioWiFi RadioKind = iota
	RadioBluetooth
	RadioGSM

	numRadios
)

var radioNames = [numRadios]string{RadioWiFi: "wifi", RadioBluetooth: "bluetooth", RadioGSM: "gsm"}

// String returns the radio's name.
func (r RadioKind) String() string { return radioNames[r] }

// The cost table, in millijoules, with magnitudes in line with published
// smartphone measurements: GPS fixes are ~3 orders of magnitude more
// expensive than inertial samples, WiFi bytes are cheaper than GSM bytes,
// and radio wake-ups carry a fixed tail cost.
var (
	sampleMJ = [sensor.NumKinds]float64{ // per sample
		sensor.Accelerometer: 0.005,
		sensor.Gyroscope:     0.02,
		sensor.Magnetometer:  0.01,
		sensor.GPS:           45.0, // a position fix
		sensor.WiFi:          8.0,  // an AP scan
		sensor.Temperature:   0.002,
		sensor.Microphone:    0.06,
		sensor.Barometer:     0.003,
		sensor.Light:         0.002,
		sensor.Humidity:      0.002,
		sensor.Proximity:     0.002,
	}
	txByteMJ = [numRadios]float64{RadioWiFi: 0.0006, RadioBluetooth: 0.0002, RadioGSM: 0.004}  // per transmitted byte
	rxByteMJ = [numRadios]float64{RadioWiFi: 0.0004, RadioBluetooth: 0.00015, RadioGSM: 0.003} // per received byte
	wakeMJ   = [numRadios]float64{RadioWiFi: 6.0, RadioBluetooth: 0.8, RadioGSM: 12.0}         // fixed cost to wake the radio per exchange
)

// IdlePerSecMJ is the baseline draw per second.
const IdlePerSecMJ = 7

// SampleMJ returns the energy of one sample of the given sensor kind.
func SampleMJ(kind sensor.Kind) float64 { return sampleMJ[kind] }

// TxCostMJ returns the energy of one transmission of the given size on a
// radio, including the wake cost.
func TxCostMJ(radio RadioKind, bytes int) float64 {
	return wakeMJ[radio] + txByteMJ[radio]*float64(bytes)
}

// Meter categories: idle, then one per radio for transmission and for
// reception, then one per sensor kind.
const (
	catIdle       = 0
	catTx         = 1
	catRx         = catTx + int(numRadios)
	catSense      = catRx + int(numRadios)
	numCategories = catSense + int(sensor.NumKinds)
)

// categoryName returns the Breakdown key of category c: "idle",
// "tx/wifi", "rx/gsm", "sense/temperature" and so on.
func categoryName(c int) string {
	switch {
	case c == catIdle:
		return "idle"
	case c < catRx:
		return "tx/" + RadioKind(c-catTx).String()
	case c < catSense:
		return "rx/" + RadioKind(c-catRx).String()
	default:
		return "sense/" + sensor.Kind(c-catSense).String()
	}
}

// Meter accrues energy spending for one node, broken down by category.
// The zero value is an empty meter. It is safe for concurrent use.
type Meter struct {
	mu      sync.Mutex
	total   float64
	byCat   [numCategories]float64
	charged [numCategories]bool
}

func (m *Meter) charge(c int, mj float64) {
	m.mu.Lock()
	m.total += mj
	m.byCat[c] += mj
	m.charged[c] = true
	m.mu.Unlock()
}

// ChargeSamples charges n samples of the given sensor kind.
func (m *Meter) ChargeSamples(kind sensor.Kind, n int) {
	m.charge(catSense+int(kind), sampleMJ[kind]*float64(n))
}

// ChargeTx charges a transmission of the given size, including the radio
// wake cost.
func (m *Meter) ChargeTx(radio RadioKind, bytes int) {
	m.charge(catTx+int(radio), TxCostMJ(radio, bytes))
}

// ChargeRx charges a reception of the given size.
func (m *Meter) ChargeRx(radio RadioKind, bytes int) {
	m.charge(catRx+int(radio), rxByteMJ[radio]*float64(bytes))
}

// ChargeIdle charges seconds of baseline draw.
func (m *Meter) ChargeIdle(seconds float64) {
	m.charge(catIdle, IdlePerSecMJ*seconds)
}

// TotalMJ returns the total spent so far.
func (m *Meter) TotalMJ() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Breakdown returns per-category spending, keyed by category name, for
// every category charged since the last Reset.
func (m *Meter) Breakdown() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64)
	for c, mj := range m.byCat {
		if m.charged[c] {
			out[categoryName(c)] = mj
		}
	}
	return out
}

// Reset zeros the meter.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.total, m.byCat, m.charged = 0, [numCategories]float64{}, [numCategories]bool{}
	m.mu.Unlock()
}

// ChooseRadio picks the cheapest available radio for a transmission of
// the given size — the paper's "heterogeneity in mobile cloud" direction:
// Bluetooth for short in-NanoCloud hops when in range, WiFi for bulk, GSM
// as the fallback of last resort. It returns the chosen radio and its
// per-message cost; ok is false when no radio is available.
func ChooseRadio(bytes int, available []RadioKind) (RadioKind, float64, bool) {
	if len(available) == 0 {
		return 0, 0, false
	}
	best, bestCost := available[0], TxCostMJ(available[0], bytes)
	for _, r := range available[1:] {
		if c := TxCostMJ(r, bytes); c < bestCost {
			best, bestCost = r, c
		}
	}
	return best, bestCost, true
}

// SavingsPercent returns how much cheaper `proposed` is than `baseline`,
// in percent: 100·(1 − proposed/baseline). Positive means savings.
func SavingsPercent(baselineMJ, proposedMJ float64) float64 {
	if baselineMJ == 0 {
		return 0
	}
	return 100 * (1 - proposedMJ/baselineMJ)
}
