package sensor

import (
	"fmt"
	"math"
)

// MotionScenario selects the ground-truth motion driving the inertial
// probes — the workload classes behind the paper's IsDriving context.
type MotionScenario string

// Supported motion scenarios.
const (
	MotionIdle    MotionScenario = "idle"
	MotionWalking MotionScenario = "walking"
	MotionDriving MotionScenario = "driving"
)

const gravity = 9.81

// AccelModel returns a 3-axis accelerometer ground truth (m/s²) for the
// scenario. The scenarios are separable by time-domain energy and dominant
// frequency, which is what the context classifiers key on:
//
//	idle    — gravity only, sub-mm/s² tremor
//	walking — ~2 Hz gait bounce (±2.5 m/s² vertical) with 1 Hz sway
//	driving — broadband road vibration plus ~25 Hz engine ripple
func AccelModel(s MotionScenario) (Model, error) {
	switch s {
	case MotionIdle:
		return func(t float64, axis int) float64 {
			if axis == 2 {
				return gravity + 0.002*math.Sin(2*math.Pi*0.2*t)
			}
			return 0.002 * math.Sin(2*math.Pi*0.3*t+float64(axis))
		}, nil
	case MotionWalking:
		return func(t float64, axis int) float64 {
			switch axis {
			case 0: // lateral sway
				return 0.8 * math.Sin(2*math.Pi*1.0*t)
			case 1: // fore-aft push-off
				return 1.2*math.Sin(2*math.Pi*2.0*t+0.7) + 0.3*math.Sin(2*math.Pi*4.0*t)
			default: // vertical gait bounce
				return gravity + 2.5*math.Sin(2*math.Pi*2.0*t) + 0.6*math.Sin(2*math.Pi*6.0*t)
			}
		}, nil
	case MotionDriving:
		return func(t float64, axis int) float64 {
			road := 1.2*math.Sin(2*math.Pi*0.7*t) + 0.8*math.Sin(2*math.Pi*1.9*t+1.3)
			engine := 0.35 * math.Sin(2*math.Pi*25*t)
			switch axis {
			case 0:
				return 0.9*math.Sin(2*math.Pi*0.4*t) + 0.5*engine
			case 1:
				return 0.6*math.Sin(2*math.Pi*1.1*t+0.5) + engine
			default:
				return gravity + road + engine
			}
		}, nil
	default:
		return nil, fmt.Errorf("sensor: unknown motion scenario %q", s)
	}
}

// GyroModel returns a 3-axis rotation-rate model (rad/s) consistent with
// the motion scenario.
func GyroModel(s MotionScenario) (Model, error) {
	switch s {
	case MotionIdle:
		return func(t float64, axis int) float64 {
			return 0.001 * math.Sin(2*math.Pi*0.1*t+float64(axis))
		}, nil
	case MotionWalking:
		return func(t float64, axis int) float64 {
			return 0.4 * math.Sin(2*math.Pi*2.0*t+float64(axis)*0.9)
		}, nil
	case MotionDriving:
		return func(t float64, axis int) float64 {
			return 0.15*math.Sin(2*math.Pi*0.3*t+float64(axis)) + 0.05*math.Sin(2*math.Pi*25*t)
		}, nil
	default:
		return nil, fmt.Errorf("sensor: unknown motion scenario %q", s)
	}
}

// MagModel returns a 3-axis magnetometer model (µT) for a device whose
// compass heading over time is given by heading (radians, 0 = magnetic
// north). The local Earth field is ~48 µT with a 60° inclination.
func MagModel(heading func(t float64) float64) Model {
	const fieldH = 24.0 // horizontal component, µT
	const fieldV = 41.6 // vertical component, µT
	return func(t float64, axis int) float64 {
		h := heading(t)
		switch axis {
		case 0: // device x: east-ish component
			return fieldH * math.Sin(h)
		case 1: // device y: north-ish component
			return fieldH * math.Cos(h)
		default: // device z: vertical
			return -fieldV
		}
	}
}

// Schedule reports whether a binary condition holds at time t — used for
// indoor/outdoor transitions.
type Schedule func(t float64) bool

// AlternatingSchedule flips the condition every period seconds, starting
// with the condition true.
func AlternatingSchedule(period float64) Schedule {
	return func(t float64) bool {
		if period <= 0 {
			return true
		}
		return int(math.Floor(t/period))%2 == 0
	}
}

// GPSModel returns a 2-axis GPS quality model driven by an indoor
// schedule: axis 0 is visible satellite count, axis 1 is the horizontal
// accuracy estimate in meters. Indoors satellites drop and accuracy
// degrades — the signature the IsIndoor context keys on.
func GPSModel(indoor Schedule) Model {
	return func(t float64, axis int) float64 {
		wobble := 0.5 * math.Sin(2*math.Pi*0.01*t)
		if indoor(t) {
			if axis == 0 {
				return 1.5 + wobble
			}
			return 48 + 4*wobble
		}
		if axis == 0 {
			return 9 + wobble
		}
		return 4 + wobble
	}
}

// WiFiModel returns a 2-axis WiFi environment model driven by an indoor
// schedule: axis 0 is strongest-AP RSSI in dBm, axis 1 is visible AP
// count. Indoors RSSI is strong and APs are plentiful.
func WiFiModel(indoor Schedule) Model {
	return func(t float64, axis int) float64 {
		wobble := math.Sin(2 * math.Pi * 0.02 * t)
		if indoor(t) {
			if axis == 0 {
				return -44 + 2*wobble
			}
			return 8 + wobble
		}
		if axis == 0 {
			return -86 + 2*wobble
		}
		return 1 + 0.4*wobble
	}
}

// TempModel returns a scalar ambient-temperature model (°C): a diurnal
// sinusoid around base with the given swing, period 24 h of simulated
// seconds scaled by dayScale (1 = real seconds).
func TempModel(base, swing, dayScale float64) Model {
	day := 86400.0 * dayScale
	return func(t float64, axis int) float64 {
		return base + swing*math.Sin(2*math.Pi*t/day)
	}
}

// MicModel returns a scalar ambient sound-level model (dB SPL) oscillating
// between quiet and busy periods.
func MicModel(baseDB, swingDB float64) Model {
	return func(t float64, axis int) float64 {
		return baseDB + swingDB*(0.5+0.5*math.Sin(2*math.Pi*t/600))
	}
}

// BaroModel returns a scalar barometric-pressure model (hPa) with slow
// weather variation around sea-level pressure for the given altitude (m).
func BaroModel(altitude float64) Model {
	base := 1013.25 * math.Exp(-altitude/8434)
	return func(t float64, axis int) float64 {
		return base + 1.5*math.Sin(2*math.Pi*t/7200)
	}
}

// LightModel returns a scalar illuminance model (lux) driven by an indoor
// schedule: steady office lighting indoors, bright daylight outdoors.
func LightModel(indoor Schedule) Model {
	return func(t float64, axis int) float64 {
		if indoor(t) {
			return 320 + 10*math.Sin(2*math.Pi*0.05*t)
		}
		return 9500 + 500*math.Sin(2*math.Pi*0.001*t)
	}
}

// HumidityModel returns a scalar relative-humidity model (%).
func HumidityModel(base, swing float64) Model {
	return func(t float64, axis int) float64 {
		return base + swing*math.Sin(2*math.Pi*t/3600)
	}
}

// ProximityModel returns a scalar near/far model (cm, saturating at
// maxRange) that toggles on the given schedule (e.g. phone in pocket).
func ProximityModel(near Schedule, maxRange float64) Model {
	return func(t float64, axis int) float64 {
		if near(t) {
			return 0
		}
		return maxRange
	}
}

// StandardPhone builds the registry of the full Fig. 3 probe complement
// for one simulated handset: accelerometer, gyroscope,
// magnetometer, GPS, WiFi, temperature, microphone, barometer, light,
// humidity and proximity, all configured with the device profile's noise
// scaling. namePrefix distinguishes handsets ("node3/accelerometer").
func StandardPhone(namePrefix string, seed int64, profile DeviceProfile, motion MotionScenario, indoor Schedule) (*Registry, error) {
	accel, err := AccelModel(motion)
	if err != nil {
		return nil, err
	}
	gyro, err := GyroModel(motion)
	if err != nil {
		return nil, err
	}
	heading := func(t float64) float64 { return 0.3 * math.Sin(2*math.Pi*t/300) }
	type spec struct {
		kind  Kind
		axes  int
		rate  float64
		noise float64
		model Model
	}
	specs := []spec{
		{Accelerometer, 3, 64, 0.05, accel},
		{Gyroscope, 3, 64, 0.01, gyro},
		{Magnetometer, 3, 32, 0.5, MagModel(heading)},
		{GPS, 2, 1, 0.3, GPSModel(indoor)},
		{WiFi, 2, 1, 1.5, WiFiModel(indoor)},
		{Temperature, 1, 0.2, 0.2, TempModel(22, 4, 1)},
		{Microphone, 1, 16, 1.0, MicModel(45, 25)},
		{Barometer, 1, 1, 0.1, BaroModel(50)},
		{Light, 1, 2, 15, LightModel(indoor)},
		{Humidity, 1, 0.2, 1.0, HumidityModel(55, 10)},
		{Proximity, 1, 4, 0, ProximityModel(func(t float64) bool { return false }, 5)},
	}
	probes := make([]*Probe, len(specs))
	for i, s := range specs {
		cfg := profile.Apply(Config{
			RateHz: s.rate, NoiseSigma: s.noise, Seed: seed + int64(i)*7919,
		})
		if probes[i], err = NewProbe(fmt.Sprintf("%s/%s", namePrefix, s.kind), s.kind, s.axes, cfg, s.model); err != nil {
			return nil, err
		}
	}
	return NewRegistry(probes...)
}
