// Package sensor implements SenseDroid's sensing-probe framework (paper
// §3, Fig. 3): configurable probes for the physical sensors found on (or
// attached to) mobile phones, a registry through which the middleware
// discovers and configures them, and device heterogeneity profiles that
// feed the GLS noise covariance.
//
// There is no real hardware in this reproduction, so each probe wraps a
// parametric signal model (models.go) plus a configurable white-noise
// pipeline. The reconstruction and context layers only ever see sampled
// values and noise statistics, which is exactly what they would see from
// real hardware.
package sensor

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Kind identifies a sensor modality.
type Kind string

// Physical sensor modalities provided by the framework (the probe list of
// the paper's Fig. 3).
const (
	Accelerometer Kind = "accelerometer"
	Gyroscope     Kind = "gyroscope"
	Magnetometer  Kind = "magnetometer"
	GPS           Kind = "gps"
	WiFi          Kind = "wifi-rssi"
	Temperature   Kind = "temperature"
	Microphone    Kind = "microphone"
	Barometer     Kind = "barometer"
	Light         Kind = "light"
	Humidity      Kind = "humidity"
	Proximity     Kind = "proximity"
)

// Sample is one multi-axis reading with its timestamp in seconds since the
// probe was created (simulation time, not wall time).
type Sample struct {
	T      float64
	Values []float64
}

// Model is a deterministic ground-truth signal: value of the given axis at
// time t, before any sensor imperfection is applied.
type Model func(t float64, axis int) float64

// Config holds the user-tunable probe parameters exposed through the
// sensing API ("configurable measurement parameters such as sampling rate,
// duration etc.").
type Config struct {
	RateHz     float64 // sampling rate; must be > 0
	NoiseSigma float64 // additive white noise std-dev per axis
	Seed       int64   // noise RNG seed (deterministic replay)
}

// Probe is one configured sensor instance.
type Probe struct {
	name string
	kind Kind
	axes int
	cfg  Config

	model Model
	rng   *rand.Rand // noise stream; nil until the first noisy sample
	t     float64
}

// NewProbe builds a probe from a config and ground-truth model.
func NewProbe(name string, kind Kind, axes int, cfg Config, model Model) (*Probe, error) {
	if name == "" {
		return nil, errors.New("sensor: empty probe name")
	}
	if axes <= 0 {
		return nil, fmt.Errorf("sensor: probe %q needs at least one axis", name)
	}
	if cfg.RateHz <= 0 {
		return nil, fmt.Errorf("sensor: probe %q needs positive sample rate", name)
	}
	if model == nil {
		return nil, fmt.Errorf("sensor: probe %q has no signal model", name)
	}
	return &Probe{name: name, kind: kind, axes: axes, cfg: cfg, model: model}, nil
}

// Name returns the probe's unique name.
func (p *Probe) Name() string { return p.name }

// Kind returns the probe's modality.
func (p *Probe) Kind() Kind { return p.kind }

// Axes returns the number of axes per sample.
func (p *Probe) Axes() int { return p.axes }

// Config returns the probe's configuration.
func (p *Probe) Config() Config { return p.cfg }

// NoiseSigma returns the configured noise standard deviation — the number
// the broker uses to build the GLS covariance for heterogeneous sensors.
func (p *Probe) NoiseSigma() float64 { return p.cfg.NoiseSigma }

// Next produces the next sample and advances simulation time by 1/rate.
// The noise stream is seeded here on first use, not in NewProbe: a phone
// carries eight probes and a campaign samples few of them, and seeding
// was most of a deployment's set-up time.
func (p *Probe) Next() Sample {
	s := Sample{T: p.t, Values: make([]float64, p.axes)}
	for a := 0; a < p.axes; a++ {
		v := p.model(p.t, a)
		if p.cfg.NoiseSigma > 0 {
			if p.rng == nil {
				p.rng = rand.New(rand.NewSource(p.cfg.Seed))
			}
			v += p.rng.NormFloat64() * p.cfg.NoiseSigma
		}
		s.Values[a] = v
	}
	p.t += 1 / p.cfg.RateHz
	return s
}

// CollectAxis returns the next n readings of a single axis as a plain
// vector, the shape the compressive-sensing layer consumes.
func (p *Probe) CollectAxis(n, axis int) ([]float64, error) {
	if axis < 0 || axis >= p.axes {
		return nil, fmt.Errorf("sensor: axis %d out of range [0,%d)", axis, p.axes)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Next().Values[axis]
	}
	return out, nil
}

// Reset rewinds simulation time and re-seeds the noise stream, replaying
// the identical sample sequence.
func (p *Probe) Reset() {
	p.t = 0
	p.rng = nil
}

// --- Device heterogeneity ----------------------------------------------------

// DeviceProfile captures how sensor quality varies across phone models —
// the paper's "heterogeneous sensors with different characteristics and
// quality (as in different mobile phone)".
type DeviceProfile struct {
	Class      string
	NoiseScale float64 // multiplies each probe's base noise sigma
}

// Built-in profiles spanning the handset quality range.
var (
	ProfileFlagship = DeviceProfile{Class: "flagship", NoiseScale: 0.5}
	ProfileMidrange = DeviceProfile{Class: "midrange", NoiseScale: 1.0}
	ProfileBudget   = DeviceProfile{Class: "budget", NoiseScale: 2.5}
)

// RandomProfile draws a profile with a realistic mix (20% flagship, 50%
// midrange, 30% budget).
func RandomProfile(rng *rand.Rand) DeviceProfile {
	switch r := rng.Float64(); {
	case r < 0.2:
		return ProfileFlagship
	case r < 0.7:
		return ProfileMidrange
	default:
		return ProfileBudget
	}
}

// Apply returns a copy of cfg with the profile's noise scaling applied.
func (d DeviceProfile) Apply(cfg Config) Config {
	cfg.NoiseSigma *= d.NoiseScale
	return cfg
}

// --- Registry ----------------------------------------------------------------

// Registry is a concurrency-safe probe directory: the node middleware
// registers its configured probes here and the sensing API looks them up
// by name or kind.
type Registry struct {
	mu     sync.RWMutex
	probes map[string]*Probe
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{probes: make(map[string]*Probe)}
}

// Register adds a probe; registering a duplicate name is an error.
func (r *Registry) Register(p *Probe) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.probes[p.Name()]; ok {
		return fmt.Errorf("sensor: probe %q already registered", p.Name())
	}
	r.probes[p.Name()] = p
	return nil
}

// Get returns the probe with the given name.
func (r *Registry) Get(name string) (*Probe, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.probes[name]
	return p, ok
}

// List returns all probe names, sorted.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.probes))
	for n := range r.probes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// First returns the probe ByKind(kind) lists first, the one of that
// modality whose name sorts lowest, without building the list: it is what
// a node reads on every measurement.
func (r *Registry) First(kind Kind) (*Probe, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var first *Probe
	for _, p := range r.probes {
		if p.Kind() == kind && (first == nil || p.Name() < first.Name()) {
			first = p
		}
	}
	return first, first != nil
}

// ByKind returns all probes of a modality, sorted by name.
func (r *Registry) ByKind(kind Kind) []*Probe {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Probe
	for _, p := range r.probes {
		if p.Kind() == kind {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Len returns the number of registered probes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.probes)
}
