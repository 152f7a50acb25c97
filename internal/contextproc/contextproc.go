// Package contextproc implements SenseDroid's context determination layer
// (paper §3): feature extraction from sensor windows, activity/mobility
// classification, the IsDriving and IsIndoor virtual context sensors, group
// context fusion, and — the paper's key energy idea — a *temporal
// compressive sensing* pipeline that reconstructs a full sensor window
// from a few random samples before classifying, so contexts can be
// computed "with similar accuracy while saving energy consumptions".
package contextproc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/basis"
	"repro/internal/cs"
	"repro/internal/mat"
)

// Features summarizes one window of scalar sensor samples.
type Features struct {
	Mean        float64
	Variance    float64
	Energy      float64 // mean squared value after mean removal
	DominantHz  float64 // frequency with the largest spectral power (excl. DC)
	ZeroCrossHz float64 // mean-crossing rate, crossings per second
	PeakToPeak  float64
}

// Extract computes features for a window sampled at rateHz.
func Extract(xs []float64, rateHz float64) (Features, error) {
	if len(xs) < 4 {
		return Features{}, errors.New("contextproc: window too short")
	}
	if rateHz <= 0 {
		return Features{}, errors.New("contextproc: sample rate must be positive")
	}
	f := Features{Mean: mat.Mean(xs), Variance: mat.Variance(xs)}
	f.Energy = f.Variance
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	f.PeakToPeak = hi - lo
	// Mean-crossing rate.
	crossings := 0
	prev := xs[0] - f.Mean
	for _, v := range xs[1:] {
		cur := v - f.Mean
		if (cur > 0 && prev < 0) || (cur < 0 && prev > 0) {
			crossings++
		}
		if cur != 0 {
			prev = cur
		}
	}
	dur := float64(len(xs)-1) / rateHz
	if dur > 0 {
		f.ZeroCrossHz = float64(crossings) / dur
	}
	f.DominantHz = dominantFrequency(xs, rateHz, f.Mean)
	return f, nil
}

// dominantFrequency scans the Goertzel power at each DFT bin above DC and
// returns the frequency of the strongest bin.
func dominantFrequency(xs []float64, rateHz, mean float64) float64 {
	n := len(xs)
	bestPow, bestHz := 0.0, 0.0
	for k := 1; k <= n/2; k++ {
		w := 2 * math.Pi * float64(k) / float64(n)
		cosw := math.Cos(w)
		// Goertzel recurrence.
		s0, s1, s2 := 0.0, 0.0, 0.0
		for _, v := range xs {
			s0 = v - mean + 2*cosw*s1 - s2
			s2, s1 = s1, s0
		}
		pow := s1*s1 + s2*s2 - 2*cosw*s1*s2
		if pow > bestPow {
			bestPow = pow
			bestHz = float64(k) * rateHz / float64(n)
		}
	}
	return bestHz
}

// Activity is a recognized user motion state.
type Activity string

// Recognized activities.
const (
	ActivityIdle    Activity = "idle"
	ActivityWalking Activity = "walking"
	ActivityDriving Activity = "driving"
)

// ClassifyActivity maps accelerometer-window features to an activity with
// interpretable thresholds: near-zero energy is idle; strong gait-band
// (1.5–3 Hz) periodicity with high energy is walking; remaining sustained
// vibration is driving.
func ClassifyActivity(f Features) Activity {
	if f.Variance < 0.05 {
		return ActivityIdle
	}
	if f.DominantHz >= 1.5 && f.DominantHz <= 3.0 && f.Variance > 2.0 {
		return ActivityWalking
	}
	return ActivityDriving
}

// --- IsIndoor -----------------------------------------------------------------

// EnvReading is one joint GPS+WiFi observation.
type EnvReading struct {
	GPSSatellites float64 // visible satellite count
	GPSAccuracyM  float64 // reported horizontal accuracy, meters
	WiFiRSSIdBm   float64 // strongest AP RSSI
	WiFiAPCount   float64 // visible AP count
}

// IsIndoor fuses GPS and WiFi evidence into the IsIndoor flag the paper
// uses as its energy-efficient context example: weak GPS and strong/dense
// WiFi indicate being inside a building.
func IsIndoor(r EnvReading) bool {
	votes := 0
	if r.GPSSatellites < 4 {
		votes++
	}
	if r.GPSAccuracyM > 20 {
		votes++
	}
	if r.WiFiRSSIdBm > -60 {
		votes++
	}
	if r.WiFiAPCount > 4 {
		votes++
	}
	return votes >= 2
}

// --- Temporal compressive context pipeline ------------------------------------

// Pipeline reconstructs a full N-sample sensor window from M ≪ N randomly
// timed samples (temporal compressive sensing in the basis Φ) so that
// downstream context classification runs on the reconstruction. M/N is the
// duty cycle — the energy knob.
type Pipeline struct {
	N, M, K int            // window length, measurements, sparsity budget
	Phi     basis.Operator // N-point orthonormal basis operator (DCT/DFT)
}

// NewPipeline validates and builds a pipeline.
func NewPipeline(phi basis.Operator, m, k int) (*Pipeline, error) {
	if phi == nil || phi.Dim() == 0 {
		return nil, errors.New("contextproc: pipeline needs a basis operator")
	}
	n := phi.Dim()
	if m <= 0 || m > n {
		return nil, fmt.Errorf("contextproc: measurements %d outside (0,%d]", m, n)
	}
	if k <= 0 || k > m {
		return nil, fmt.Errorf("contextproc: sparsity %d outside (0,%d]", k, m)
	}
	return &Pipeline{N: n, M: m, K: k, Phi: phi}, nil
}

// Reconstruct samples M random instants of the window and recovers the
// full window with OMP. It returns the reconstruction and the sampled
// instant indices (the only instants the sensor had to be powered for).
func (p *Pipeline) Reconstruct(window []float64, rng *rand.Rand) ([]float64, []int, error) {
	if len(window) != p.N {
		return nil, nil, fmt.Errorf("contextproc: window length %d, want %d", len(window), p.N)
	}
	locs, err := cs.RandomLocations(rng, p.N, p.M)
	if err != nil {
		return nil, nil, err
	}
	y, err := cs.Measure(window, locs, rng, nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := cs.OMPOp(p.Phi, locs, y, p.K, 1e-9)
	if err != nil {
		return nil, nil, err
	}
	return res.Xhat, locs, nil
}

// ClassifyCompressive runs the full paper pipeline: compressively sample
// the window, reconstruct, extract features, classify. It returns the
// activity decided from the reconstruction and the one from the full
// window (for accuracy accounting), plus the reconstruction NMSE.
func (p *Pipeline) ClassifyCompressive(window []float64, rateHz float64, rng *rand.Rand) (compressed, full Activity, nmse float64, err error) {
	xhat, _, err := p.Reconstruct(window, rng)
	if err != nil {
		return "", "", 0, err
	}
	fc, err := Extract(xhat, rateHz)
	if err != nil {
		return "", "", 0, err
	}
	ff, err := Extract(window, rateHz)
	if err != nil {
		return "", "", 0, err
	}
	return ClassifyActivity(fc), ClassifyActivity(ff), cs.NMSE(window, xhat), nil
}

// --- Group context fusion -------------------------------------------------------

// MemberContext is one group member's shared context snapshot.
type MemberContext struct {
	Member   string
	Activity Activity
	Stress   float64 // [0,1]
	Indoor   bool
}

// GroupContext is the fused view of a collaborating group (the paper's
// "family health indicator" / "combined stress quotient").
type GroupContext struct {
	Size           int
	MajorityAct    Activity
	StressQuotient float64 // mean member stress
	IndoorFraction float64
}

// FuseGroup aggregates member contexts.
func FuseGroup(members []MemberContext) (GroupContext, error) {
	if len(members) == 0 {
		return GroupContext{}, errors.New("contextproc: empty group")
	}
	counts := map[Activity]int{}
	g := GroupContext{Size: len(members)}
	indoor := 0
	for _, m := range members {
		counts[m.Activity]++
		g.StressQuotient += m.Stress
		if m.Indoor {
			indoor++
		}
	}
	g.StressQuotient /= float64(len(members))
	g.IndoorFraction = float64(indoor) / float64(len(members))
	best, bestN := Activity(""), -1
	for a, n := range counts {
		if n > bestN || (n == bestN && a < best) {
			best, bestN = a, n
		}
	}
	g.MajorityAct = best
	return g, nil
}

// StressIndex maps ambient sound level and activity to a [0,1] stress
// surrogate (a deliberately simple stand-in for the StressSense-style
// acoustic models the paper cites).
func StressIndex(micDB float64, act Activity) float64 {
	s := (micDB - 35) / 55 // 35 dB quiet → 0, 90 dB loud → 1
	if act == ActivityDriving {
		s += 0.15
	}
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}
