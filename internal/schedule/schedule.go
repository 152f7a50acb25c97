// Package schedule implements the sensor-scheduling and adaptive-sampling
// strategies the paper lists as the energy-efficiency research directions
// (§5): a variance-driven adaptive sampler that backs off when the signal
// is quiet and accelerates when it moves.
package schedule

import "errors"

// AdaptiveSampler chooses the next sampling interval from observed signal
// dynamics: additive-increase of the interval while the recent window is
// quiet, multiplicative-decrease the moment it becomes active (the AIMD
// asymmetry reacts fast to events and saves energy slowly, never the
// reverse).
type AdaptiveSampler struct {
	MinInterval float64 // fastest sampling period, seconds
	MaxInterval float64 // slowest sampling period, seconds
	Threshold   float64 // window variance above this counts as "active"
	Increase    float64 // seconds added per quiet window (default Min/2)
	Decrease    float64 // multiplicative factor on activity (default 0.25)

	interval float64
}

// NewAdaptiveSampler validates and builds a sampler starting at the
// fastest rate (conservative: it only slows down after observing quiet).
func NewAdaptiveSampler(minInterval, maxInterval, threshold float64) (*AdaptiveSampler, error) {
	if minInterval <= 0 || maxInterval < minInterval {
		return nil, errors.New("schedule: need 0 < min <= max interval")
	}
	if threshold <= 0 {
		return nil, errors.New("schedule: variance threshold must be positive")
	}
	return &AdaptiveSampler{
		MinInterval: minInterval, MaxInterval: maxInterval, Threshold: threshold,
		Increase: minInterval / 2, Decrease: 0.25,
		interval: minInterval,
	}, nil
}

// Observe feeds the variance of the most recent sample window and returns
// the next sampling interval.
func (s *AdaptiveSampler) Observe(windowVariance float64) float64 {
	if windowVariance > s.Threshold {
		s.interval *= s.Decrease
		if s.interval < s.MinInterval {
			s.interval = s.MinInterval
		}
	} else {
		s.interval += s.Increase
		if s.interval > s.MaxInterval {
			s.interval = s.MaxInterval
		}
	}
	return s.interval
}

// Reset returns the sampler to the fastest rate.
func (s *AdaptiveSampler) Reset() { s.interval = s.MinInterval }
