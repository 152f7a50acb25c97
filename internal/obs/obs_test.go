package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterDisabledIsNoOp(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if v := c.Value(); v != 0 {
		t.Fatalf("disabled counter recorded %d", v)
	}
	r.SetEnabled(true)
	c.Add(5)
	c.Inc()
	if v := c.Value(); v != 6 {
		t.Fatalf("enabled counter = %d, want 6", v)
	}
	r.SetEnabled(false)
	c.Inc()
	if v := c.Value(); v != 6 {
		t.Fatalf("re-disabled counter moved to %d", v)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles returned nonzero")
	}
}

func TestCounterInterning(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name returned distinct counters")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Fatal("distinct names shared a counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	c := r.Counter("c")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if v := c.Value(); v != workers*per {
		t.Fatalf("concurrent count = %d, want %d", v, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(3.5)
	if g.Value() != 0 {
		t.Fatal("disabled gauge recorded")
	}
	r.SetEnabled(true)
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("h", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// Uniform 1..100: p50 ≈ 50, p95 ≈ 95, p99 ≈ 99, within a bucket width.
	if math.Abs(s.P50-50) > 10 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if math.Abs(s.P95-95) > 10 {
		t.Fatalf("p95 = %v", s.P95)
	}
	if math.Abs(s.P99-99) > 10 {
		t.Fatalf("p99 = %v", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: %v %v %v", s.P50, s.P95, s.P99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if s.P99 != 99 {
		t.Fatalf("overflow p99 = %v, want observed max", s.P99)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	r := NewRegistry()
	s := r.Histogram("h", nil).Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P50 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("h", CountBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 64))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	total := int64(0)
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	if s.Min != 0 || s.Max != 63 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSpanDisabledIsInert(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("op")
	sp.Label("k", "v")
	sp.Finish()
	if n := len(r.Spans()); n != 0 {
		t.Fatalf("disabled span recorded (%d)", n)
	}
}

func TestSpanRecording(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	sp := r.StartSpan("gather")
	sp.Label("zone", "3")
	time.Sleep(time.Millisecond)
	sp.Finish()
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	got := spans[0]
	if got.Name != "gather" || got.Labels["zone"] != "3" {
		t.Fatalf("span = %+v", got)
	}
	if got.DurationNS <= 0 {
		t.Fatalf("duration = %d", got.DurationNS)
	}
	// Auto-histogram fed by Finish.
	if c := r.Histogram("span.gather.ms", LatencyBuckets).Snapshot().Count; c != 1 {
		t.Fatalf("span auto-histogram count = %d", c)
	}
}

func TestSpanRingBounded(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	for i := 0; i < DefaultSpanRing+10; i++ {
		r.StartSpan("s").Finish()
	}
	if n := len(r.Spans()); n != DefaultSpanRing {
		t.Fatalf("ring holds %d, want %d", n, DefaultSpanRing)
	}
	if n := r.Histogram("span.s.ms", LatencyBuckets).Snapshot().Count; n != DefaultSpanRing+10 {
		t.Fatalf("total = %d", n)
	}
}

func TestSpanRingOrder(t *testing.T) {
	r := NewRegistry()
	r.spans = newSpanRecorder(r, 3)
	r.SetEnabled(true)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		sp := r.StartSpan(name)
		sp.Finish()
	}
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].Name != "c" || spans[1].Name != "d" || spans[2].Name != "e" {
		t.Fatalf("order = %s %s %s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
}

func TestSpanConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := r.StartSpan("w")
				sp.Label("i", "x")
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	if n := r.Histogram("span.w.ms", LatencyBuckets).Snapshot().Count; n != workers*per {
		t.Fatalf("span total = %d, want %d", n, workers*per)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("bus.publish.messages").Add(7)
	r.Gauge("campaign.nmse.global").Set(0.0125)
	r.Histogram("netsim.link.latency_ms", LatencyBuckets).Observe(3)
	r.StartSpan("assemble").Finish()
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if snap.Counters["bus.publish.messages"] != 7 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if snap.Gauges["campaign.nmse.global"] != 0.0125 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}
	if snap.Histograms["netsim.link.latency_ms"].Count != 1 {
		t.Fatalf("histograms = %v", snap.Histograms)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "assemble" {
		t.Fatalf("spans = %v", snap.Spans)
	}
}

func TestDebugHandler(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("broker.gather.rounds").Add(3)
	r.StartSpan("broker.gather").Finish()
	srv := httptest.NewServer(DebugHandler(r))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if snap.Counters["broker.gather.rounds"] != 3 {
		t.Fatalf("/metrics.json counters = %v", snap.Counters)
	}
	var spans []SpanRecord
	if err := json.Unmarshal([]byte(get("/spans")), &spans); err != nil {
		t.Fatalf("/spans: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "broker.gather" {
		t.Fatalf("/spans = %v", spans)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestStartDebugServer(t *testing.T) {
	r := NewRegistry()
	srv, addr, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !r.Enabled() {
		t.Fatal("StartDebugServer did not enable the registry")
	}
	if addr == "" || !strings.Contains(addr, ":") {
		t.Fatalf("addr = %q", addr)
	}
}
