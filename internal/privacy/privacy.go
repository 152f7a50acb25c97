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
	share    map[sensor.Kind]bool
	quantize map[sensor.Kind]float64 // round shared values to this step
}

// NewPolicy returns a deny-by-default policy.
func NewPolicy() *Policy {
	return &Policy{
		share:    make(map[sensor.Kind]bool),
		quantize: make(map[sensor.Kind]float64),
	}
}

// AllowAll returns a policy sharing every listed kind.
func AllowAll(kinds ...sensor.Kind) *Policy {
	p := NewPolicy()
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
// (0 disables quantization). Coarse location/temperature sharing is the
// classic privacy/utility dial.
func (p *Policy) SetQuantize(kind sensor.Kind, step float64) {
	p.mu.Lock()
	if step <= 0 {
		delete(p.quantize, kind)
	} else {
		p.quantize[kind] = step
	}
	p.mu.Unlock()
}

// Allows reports whether values of the kind may leave the device.
func (p *Policy) Allows(kind sensor.Kind) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return !p.optOut && p.share[kind]
}

// Filter applies the policy to an outgoing reading: it returns the
// (possibly quantized) values and true, or nil and false when sharing is
// denied. The input slice is not modified.
func (p *Policy) Filter(kind sensor.Kind, values []float64) ([]float64, bool) {
	if !p.Allows(kind) {
		return nil, false
	}
	p.mu.RLock()
	step := p.quantize[kind]
	p.mu.RUnlock()
	out := make([]float64, len(values))
	copy(out, values)
	if step > 0 {
		for i, v := range out {
			out[i] = math.Round(v/step) * step
		}
	}
	return out, true
}
