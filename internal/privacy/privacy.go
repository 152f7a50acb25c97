// Package privacy implements the privacy regulation layer the paper
// commits to: "transparency, full user control, and encryption of the data
// that is shared. User can fully set or control their preferences, enable
// or disable features, control the type of sensors and parameter that can
// be shared … In the worst case, the user can opt-out."
//
// A Policy gates and degrades (quantizes) per-sensor sharing.
package privacy

import (
	"math"
	"sync"

	"repro/internal/sensor"
)

// Policy is one user's sharing preferences. The zero value shares nothing
// (privacy by default); use AllowAll for a permissive start.
type Policy struct {
	mu       sync.RWMutex
	optOut   bool
	share    [sensor.NumKinds]bool
	quantize [sensor.NumKinds]float64 // round shared values to this step
}

// AllowAll returns a policy sharing every listed kind.
func AllowAll(kinds ...sensor.Kind) *Policy {
	p := new(Policy)
	for _, k := range kinds {
		p.SetShare(k, true)
	}
	return p
}

// SetOptOut flips the global opt-out: when set, nothing is shared
// regardless of per-sensor settings.
func (p *Policy) SetOptOut(v bool) {
	p.mu.Lock()
	p.optOut = v
	p.mu.Unlock()
}

// SetShare enables or disables sharing of one sensor kind.
func (p *Policy) SetShare(kind sensor.Kind, allow bool) {
	p.mu.Lock()
	p.share[kind] = allow
	p.mu.Unlock()
}

// SetQuantize degrades shared values of a kind to multiples of step
// (0 or less disables quantization). Coarse location/temperature sharing
// is the classic privacy/utility dial.
func (p *Policy) SetQuantize(kind sensor.Kind, step float64) {
	p.mu.Lock()
	p.quantize[kind] = step
	p.mu.Unlock()
}

// Filter applies the policy to an outgoing reading: it returns the
// (possibly quantized) value and true, or 0 and false when sharing is
// denied.
func (p *Policy) Filter(kind sensor.Kind, v float64) (float64, bool) {
	p.mu.RLock()
	allowed, step := !p.optOut && p.share[kind], p.quantize[kind]
	p.mu.RUnlock()
	if !allowed {
		return 0, false
	}
	if step > 0 {
		v = math.Round(v/step) * step
	}
	return v, true
}
