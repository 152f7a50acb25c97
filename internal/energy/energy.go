// Package energy provides the component energy model and per-node battery
// accounting used to evaluate SenseDroid's energy claims. Since there is
// no physical battery to measure, costs are charged per event (sensor
// sample, radio byte, idle second) from a table whose magnitudes follow
// published smartphone measurements; the paper's energy results are
// relative (percent savings), which a consistent component model
// preserves.
package energy

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/sensor"
)

// RadioKind names a network interface with its own energy profile — the
// paper's "multiple networks like WiFi, GSM, bluetooth".
type RadioKind string

// Supported radios.
const (
	RadioWiFi      RadioKind = "wifi"
	RadioBluetooth RadioKind = "bluetooth"
	RadioGSM       RadioKind = "gsm"
)

// Model is the energy cost table. All costs are in millijoules.
type Model struct {
	SensorSampleMJ map[sensor.Kind]float64 // per sample
	RadioTxByteMJ  map[RadioKind]float64   // per transmitted byte
	RadioRxByteMJ  map[RadioKind]float64   // per received byte
	RadioWakeMJ    map[RadioKind]float64   // fixed cost to wake the radio per exchange
	IdlePerSecMJ   float64                 // baseline draw
}

// DefaultModel returns a cost table with magnitudes in line with published
// smartphone measurements: GPS fixes are ~3 orders of magnitude more
// expensive than inertial samples, WiFi bytes are cheaper than GSM bytes,
// and radio wake-ups carry a fixed tail cost.
func DefaultModel() *Model {
	return &Model{
		SensorSampleMJ: map[sensor.Kind]float64{
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
		},
		RadioTxByteMJ: map[RadioKind]float64{
			RadioWiFi: 0.0006, RadioBluetooth: 0.0002, RadioGSM: 0.004,
		},
		RadioRxByteMJ: map[RadioKind]float64{
			RadioWiFi: 0.0004, RadioBluetooth: 0.00015, RadioGSM: 0.003,
		},
		RadioWakeMJ: map[RadioKind]float64{
			RadioWiFi: 6.0, RadioBluetooth: 0.8, RadioGSM: 12.0,
		},
		IdlePerSecMJ: 7,
	}
}

// Category names for the radios and sensor kinds the default model
// prices, built once so that a charge does not concatenate a new string
// on every call. Any other radio or kind builds its name per charge.
var (
	txCategory    = categoryNames("tx/", RadioWiFi, RadioBluetooth, RadioGSM)
	rxCategory    = categoryNames("rx/", RadioWiFi, RadioBluetooth, RadioGSM)
	senseCategory = categoryNames("sense/", sensorKinds(DefaultModel())...)
)

func categoryNames[K ~string](prefix string, keys ...K) map[K]string {
	names := make(map[K]string, len(keys))
	for _, k := range keys {
		names[k] = prefix + string(k)
	}
	return names
}

func sensorKinds(m *Model) []sensor.Kind {
	kinds := make([]sensor.Kind, 0, len(m.SensorSampleMJ))
	for k := range m.SensorSampleMJ {
		kinds = append(kinds, k)
	}
	return kinds
}

// category returns prefix+k, from names when it holds k.
func category[K ~string](names map[K]string, prefix string, k K) string {
	if name, ok := names[k]; ok {
		return name
	}
	return prefix + string(k)
}

// Meter accrues energy spending for one node, broken down by category.
// It is safe for concurrent use.
type Meter struct {
	model *Model

	mu    sync.Mutex
	total float64
	byCat map[string]float64
}

// NewMeter returns a meter charging against the given model.
func NewMeter(model *Model) *Meter {
	if model == nil {
		model = DefaultModel()
	}
	return &Meter{model: model, byCat: make(map[string]float64)}
}

func (m *Meter) charge(category string, mj float64) {
	m.mu.Lock()
	m.total += mj
	m.byCat[category] += mj
	m.mu.Unlock()
}

// ChargeSamples charges n samples of the given sensor kind.
func (m *Meter) ChargeSamples(kind sensor.Kind, n int) error {
	c, ok := m.model.SensorSampleMJ[kind]
	if !ok {
		return fmt.Errorf("energy: no sample cost for sensor kind %q", kind)
	}
	m.charge(category(senseCategory, "sense/", kind), c*float64(n))
	return nil
}

// ChargeTx charges a transmission of the given size, including the radio
// wake cost.
func (m *Meter) ChargeTx(radio RadioKind, bytes int) error {
	per, ok := m.model.RadioTxByteMJ[radio]
	if !ok {
		return fmt.Errorf("energy: unknown radio %q", radio)
	}
	m.charge(category(txCategory, "tx/", radio), m.model.RadioWakeMJ[radio]+per*float64(bytes))
	return nil
}

// ChargeRx charges a reception of the given size.
func (m *Meter) ChargeRx(radio RadioKind, bytes int) error {
	per, ok := m.model.RadioRxByteMJ[radio]
	if !ok {
		return fmt.Errorf("energy: unknown radio %q", radio)
	}
	m.charge(category(rxCategory, "rx/", radio), per*float64(bytes))
	return nil
}

// ChargeIdle charges seconds of baseline draw.
func (m *Meter) ChargeIdle(seconds float64) {
	m.charge("idle", m.model.IdlePerSecMJ*seconds)
}

// TotalMJ returns the total spent so far.
func (m *Meter) TotalMJ() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Breakdown returns a copy of per-category spending.
func (m *Meter) Breakdown() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.byCat))
	for k, v := range m.byCat {
		out[k] = v
	}
	return out
}

// Reset zeros the meter.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.total = 0
	m.byCat = make(map[string]float64)
	m.mu.Unlock()
}

// Battery tracks remaining charge against a capacity.
type Battery struct {
	mu       sync.Mutex
	capacity float64
	used     float64
}

// ErrDepleted reports an empty battery.
var ErrDepleted = errors.New("energy: battery depleted")

// NewBattery returns a battery with the given capacity in millijoules.
// A typical phone battery is ~40 kJ = 4e7 mJ.
func NewBattery(capacityMJ float64) *Battery {
	return &Battery{capacity: capacityMJ}
}

// Drain subtracts mj; it returns ErrDepleted once the capacity is
// exhausted (the overdraw is still recorded).
func (b *Battery) Drain(mj float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used += mj
	if b.used >= b.capacity {
		return ErrDepleted
	}
	return nil
}

// FractionRemaining returns remaining charge as a fraction of capacity.
func (b *Battery) FractionRemaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.capacity == 0 {
		return 0
	}
	f := 1 - b.used/b.capacity
	if f < 0 {
		return 0
	}
	return f
}

// TxCostMJ returns the energy of one transmission of the given size on a
// radio, including the wake cost. Unknown radios cost +Inf (never chosen).
func (m *Model) TxCostMJ(radio RadioKind, bytes int) float64 {
	per, ok := m.RadioTxByteMJ[radio]
	if !ok {
		return math.Inf(1)
	}
	return m.RadioWakeMJ[radio] + per*float64(bytes)
}

// ChooseRadio picks the cheapest available radio for a transmission of
// the given size — the paper's "heterogeneity in mobile cloud" direction:
// Bluetooth for short in-NanoCloud hops when in range, WiFi for bulk, GSM
// as the fallback of last resort. It returns the chosen radio and its
// per-message cost; ok is false when no radio is available.
func (m *Model) ChooseRadio(bytes int, available []RadioKind) (RadioKind, float64, bool) {
	best := RadioKind("")
	bestCost := math.Inf(1)
	for _, r := range available {
		if c := m.TxCostMJ(r, bytes); c < bestCost {
			best, bestCost = r, c
		}
	}
	if math.IsInf(bestCost, 1) {
		return "", 0, false
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
