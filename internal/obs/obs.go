// Package obs is SenseDroid's observability subsystem: a zero-dependency,
// allocation-conscious metrics registry (atomic counters, gauges,
// fixed-bucket histograms with quantile snapshots) plus lightweight span
// tracing with a bounded ring buffer of recent spans.
//
// The package-level Default registry is *disabled* by default: every
// instrumented hot path degrades to a nil-check plus one atomic load
// (~1 ns, zero allocations), so the middleware's fast paths — bus publish,
// netsim delivery, the CHS decoders — carry their instrumentation at no
// measurable cost until an operator turns it on with Enable() (the
// -debug-addr / -obs-out flags of the cmd/ binaries do this).
//
// Metric handles are interned by name: obs.GetCounter("bus.publish.messages")
// returns the same *Counter on every call, so packages hoist handles into
// package-level vars and the per-event cost is a single atomic op.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry owns a namespace of counters, gauges, histograms, and a span
// recorder. All methods are safe for concurrent use.
type Registry struct {
	enabled  atomic.Bool
	mu       sync.RWMutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	spans    *SpanRecorder         // immutable after NewRegistry
}

// NewRegistry returns a disabled registry with an empty namespace and a
// span ring of DefaultSpanRing entries.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.spans = newSpanRecorder(r, DefaultSpanRing)
	return r
}

// Default is the process-wide registry every instrumented package records
// into. It starts disabled.
var Default = NewRegistry()

// SetEnabled turns metric recording on or off. Handles stay valid either
// way; a disabled registry makes every record operation a no-op.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry records.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Enable turns on the Default registry.
func Enable() { Default.SetEnabled(true) }

// Disable turns off the Default registry.
func Disable() { Default.SetEnabled(false) }

// Enabled reports whether the Default registry records.
func Enabled() bool { return Default.Enabled() }

// --- Counter --------------------------------------------------------------------

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Add increments the counter when the owning registry is enabled.
func (c *Counter) Add(delta int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.v.Add(delta)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (readable even while disabled).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{on: &r.enabled}
	r.counters[name] = c
	return c
}

// GetCounter returns the named counter of the Default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// --- Gauge ----------------------------------------------------------------------

// Gauge is an atomic float64 last-value metric.
type Gauge struct {
	on *atomic.Bool
	v  atomic.Uint64 // float64 bits
}

// Set records the value when the owning registry is enabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{on: &r.enabled}
	r.gauges[name] = g
	return g
}

// GetGauge returns the named gauge of the Default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// --- Snapshot -------------------------------------------------------------------

// Snapshot is a point-in-time copy of a registry, JSON-encodable for the
// /metrics.json endpoint and the experiments -obs-out dump.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Spans      []SpanRecord            `json:"spans,omitempty"`
}

// Snapshot copies every metric. Span records are included (most recent
// last); pass through WriteJSON for the serialized form.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()
	snap := &Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistSnapshot, len(hists)),
	}
	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		snap.Histograms[name] = h.Snapshot()
	}
	snap.Spans = r.Spans()
	return snap
}
