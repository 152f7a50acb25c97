package obs

import (
	"sync"
	"time"
)

// DefaultSpanRing is how many finished spans a registry retains.
const DefaultSpanRing = 256

// SpanRecord is one finished span as retained by the ring buffer and
// served by the /spans endpoint.
type SpanRecord struct {
	Name       string            `json:"name"`
	StartUnixN int64             `json:"startUnixNano"`
	DurationNS int64             `json:"durationNano"`
	Labels     map[string]string `json:"labels,omitempty"`
}

// SpanRecorder is a bounded ring buffer of recent spans.
type SpanRecorder struct {
	reg  *Registry
	mu   sync.Mutex
	ring []SpanRecord
	next int
}

func newSpanRecorder(reg *Registry, size int) *SpanRecorder {
	if size < 1 {
		size = 1
	}
	return &SpanRecorder{reg: reg, ring: make([]SpanRecord, 0, size)}
}

func (sr *SpanRecorder) record(rec SpanRecord) {
	sr.mu.Lock()
	if len(sr.ring) < cap(sr.ring) {
		sr.ring = append(sr.ring, rec)
	} else {
		sr.ring[sr.next] = rec
		sr.next = (sr.next + 1) % cap(sr.ring)
	}
	sr.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (r *Registry) Spans() []SpanRecord {
	sr := r.spans
	sr.mu.Lock()
	defer sr.mu.Unlock()
	out := make([]SpanRecord, 0, len(sr.ring))
	if len(sr.ring) == cap(sr.ring) {
		out = append(out, sr.ring[sr.next:]...)
		out = append(out, sr.ring[:sr.next]...)
	} else {
		out = append(out, sr.ring...)
	}
	return out
}

// Span is an in-flight traced operation. The zero Span (returned when the
// registry is disabled) is inert: Label and Finish are no-ops, so call
// sites never branch on enablement themselves.
type Span struct {
	rec    *SpanRecorder
	name   string
	start  time.Time
	labels map[string]string
}

// StartSpan begins a span. When the registry is disabled this returns the
// zero Span and performs no work (not even reading the clock).
func (r *Registry) StartSpan(name string) Span {
	if !r.enabled.Load() {
		return Span{}
	}
	return Span{rec: r.spans, name: name, start: time.Now()}
}

// StartSpan begins a span on the Default registry.
func StartSpan(name string) Span { return Default.StartSpan(name) }

// Label attaches a key/value to the span (recorded at Finish).
func (s *Span) Label(key, value string) {
	if s.rec == nil {
		return
	}
	if s.labels == nil {
		s.labels = make(map[string]string, 4)
	}
	s.labels[key] = value
}

// Finish ends the span: the record lands in the ring buffer and the
// duration feeds the span's auto-histogram "span.<name>.ms", so every
// traced operation gets p50/p95/p99 latency for free.
func (s Span) Finish() {
	if s.rec == nil {
		return
	}
	dur := time.Since(s.start)
	s.rec.record(SpanRecord{
		Name:       s.name,
		StartUnixN: s.start.UnixNano(),
		DurationNS: dur.Nanoseconds(),
		Labels:     s.labels,
	})
	s.rec.reg.Histogram("span."+s.name+".ms", LatencyBuckets).
		Observe(float64(dur.Nanoseconds()) / 1e6)
}
