package obs

import (
	"math"
	"sync/atomic"
)

// Standard bucket layouts. Bounds are upper edges; one implicit +Inf
// bucket catches the overflow.
var (
	// LatencyBuckets covers sub-millisecond bus hops through multi-second
	// gather rounds (values in milliseconds).
	LatencyBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	// CountBuckets covers small discrete counts (decoder iterations,
	// support sizes, retry counts).
	CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	// SizeBuckets covers payload sizes in bytes.
	SizeBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
)

// Histogram is a fixed-bucket histogram with atomic per-bucket counters.
// Quantiles are estimated from the bucket counts by linear interpolation,
// which is exact enough for the p50/p95/p99 dashboard numbers this
// middleware reports.
type Histogram struct {
	on     *atomic.Bool
	bounds []float64      // sorted upper edges
	counts []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

func newHistogram(on *atomic.Bool, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	h := &Histogram{on: on, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later callers' bounds are ignored). Nil or empty
// bounds default to LatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	h = newHistogram(&r.enabled, bounds)
	r.hists[name] = h
	return h
}

// GetHistogram returns the named histogram of the Default registry.
func GetHistogram(name string, bounds []float64) *Histogram {
	return Default.Histogram(name, bounds)
}

// Observe records one sample when the owning registry is enabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.on.Load() {
		return
	}
	// Linear scan: bucket lists are short (≤ ~16) and the branch predictor
	// settles on the common bucket, beating binary search at these sizes.
	i := 0
	for ; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistSnapshot is a consistent-enough copy of a histogram with computed
// summary statistics.
type HistSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Mean    float64   `json:"mean"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // len(Bounds)+1; last is +Inf overflow
}

// Snapshot copies the histogram and computes mean/p50/p95/p99. Buckets are
// read without a global lock, so a snapshot taken under concurrent writes
// can be off by the in-flight observations — fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: append([]float64(nil), h.bounds...)}
	s.Buckets = make([]int64, len(h.counts))
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	s.Min = math.Float64frombits(h.min.Load())
	s.Max = math.Float64frombits(h.max.Load())
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	s.Mean = s.Sum / float64(s.Count)
	s.P50 = s.quantile(0.50)
	s.P95 = s.quantile(0.95)
	s.P99 = s.quantile(0.99)
	return s
}

// quantile estimates the q-quantile (0..1) by walking the cumulative bucket
// counts and interpolating linearly inside the landing bucket. The first
// bucket interpolates from the observed minimum; the overflow bucket
// reports the observed maximum (no upper edge to interpolate toward).
func (s HistSnapshot) quantile(q float64) float64 {
	total := int64(0)
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range s.Buckets {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(s.Bounds) { // overflow bucket
			return s.Max
		}
		lo := s.Min
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if hi > s.Max {
			hi = s.Max
		}
		if lo > hi {
			lo = hi
		}
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Max
}
