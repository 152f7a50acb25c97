package sensor

import (
	"errors"
	"math"
)

// This file implements the *fused* virtual sensors of the paper's Fig. 3:
// orientation and compass, constructed by combining physical
// accelerometer and magnetometer probes. (The *context* virtual sensors —
// IsIndoor, IsDriving, activity — live in internal/contextproc because
// they additionally need feature extraction and classification.)

// Orientation is a fused attitude estimate in radians.
type Orientation struct {
	Pitch   float64 // rotation about x, positive nose-up
	Roll    float64 // rotation about y
	Azimuth float64 // compass heading, 0 = magnetic north, in [0, 2π)
}

// FuseOrientation computes the tilt-compensated orientation from a 3-axis
// accelerometer reading (gravity-dominated, device at modest dynamics) and
// a 3-axis magnetometer reading. This is the standard eCompass fusion used
// on Android for the virtual orientation sensor.
func FuseOrientation(accel, mag []float64) (Orientation, error) {
	if len(accel) != 3 || len(mag) != 3 {
		return Orientation{}, errors.New("sensor: FuseOrientation needs 3-axis inputs")
	}
	ax, ay, az := accel[0], accel[1], accel[2]
	g := math.Sqrt(ax*ax + ay*ay + az*az)
	if g == 0 {
		return Orientation{}, errors.New("sensor: zero accelerometer vector")
	}
	pitch := math.Asin(clamp(-ax/g, -1, 1))
	roll := math.Atan2(ay, az)
	// Tilt-compensate the magnetometer.
	sinP, cosP := math.Sin(pitch), math.Cos(pitch)
	sinR, cosR := math.Sin(roll), math.Cos(roll)
	mx, my, mz := mag[0], mag[1], mag[2]
	hx := mx*cosP + mz*sinP
	hy := mx*sinR*sinP + my*cosR - mz*sinR*cosP
	az2 := math.Atan2(hx, hy)
	if az2 < 0 {
		az2 += 2 * math.Pi
	}
	return Orientation{Pitch: pitch, Roll: roll, Azimuth: az2}, nil
}

// CompassHeading returns the fused azimuth in radians — the virtual
// compass probe.
func CompassHeading(accel, mag []float64) (float64, error) {
	o, err := FuseOrientation(accel, mag)
	if err != nil {
		return 0, err
	}
	return o.Azimuth, nil
}

// VirtualProbe wraps a fusion of two physical probes as a derived
// scalar probe-like sampler (e.g. a compass built from accelerometer +
// magnetometer). Sampling advances both underlying probes.
type VirtualProbe struct {
	Name string
	A, B *Probe
	Fuse func(a, b []float64) (float64, error)
}

// Next samples both inputs and returns the fused value.
func (v *VirtualProbe) Next() (float64, error) {
	sa := v.A.Next()
	sb := v.B.Next()
	return v.Fuse(sa.Values, sb.Values)
}

// NewCompassProbe builds the virtual compass from an accelerometer and a
// magnetometer probe.
func NewCompassProbe(name string, accel, mag *Probe) (*VirtualProbe, error) {
	if accel == nil || mag == nil {
		return nil, errors.New("sensor: compass needs both inputs")
	}
	if accel.Kind() != Accelerometer || mag.Kind() != Magnetometer {
		return nil, errors.New("sensor: compass needs accelerometer + magnetometer")
	}
	return &VirtualProbe{Name: name, A: accel, B: mag, Fuse: CompassHeading}, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
