package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/sensor"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// stubPipeline is a pipeline status fixed by the test.
type stubPipeline struct {
	windows int
	err     error
}

func (p stubPipeline) Windows() int   { return p.windows }
func (p stubPipeline) LastErr() error { return p.err }

// testMux builds the query API over a fresh registry and a pipeline with
// one clean window; publish says whether one snapshot should land first.
func testMux(t *testing.T, publish bool) *http.ServeMux {
	return testMuxPipe(t, publish, stubPipeline{windows: 1})
}

// testMuxPipe is testMux over the given pipeline status.
func testMuxPipe(t *testing.T, publish bool, pipe pipelineStatus) *http.ServeMux {
	t.Helper()
	reg := snapshot.NewRegistry(4)
	srv, err := serve.New(reg, 8, 8, 2, 2)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if publish {
		f := field.New(8, 8)
		for i := range f.Data {
			f.Data[i] = float64(i)
		}
		if _, err := reg.Publish(&snapshot.Snapshot{Step: 1, Kind: sensor.Temperature, Field: f}); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	return newMux(reg, srv, pipe)
}

func get(t *testing.T, mux *http.ServeMux, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

// TestHandlersNoSnapshot pins the empty-registry behavior: every data
// endpoint answers 503, not 500 and not a zero-value field.
func TestHandlersNoSnapshot(t *testing.T) {
	mux := testMux(t, false)
	for _, url := range []string{
		"/healthz",
		"/snapshot",
		"/field/point?row=1&col=1",
		"/field/range?row0=0&col0=0&row1=2&col1=2",
		"/field/agg?op=mean",
	} {
		if rec := get(t, mux, url); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("GET %s with empty registry = %d, want 503 (body %q)", url, rec.Code, rec.Body.String())
		}
	}
}

// TestHandlersBadParams pins the 400 paths: missing or non-integer
// query parameters never reach the query layer.
func TestHandlersBadParams(t *testing.T) {
	mux := testMux(t, true)
	for _, url := range []string{
		"/field/point",               // both params missing
		"/field/point?row=1",         // col missing
		"/field/point?row=x&col=2",   // non-integer
		"/field/range?row0=0&col0=0", // row1/col1 missing
		"/field/range?row0=a&col0=0&row1=2&col1=2",
		"/field/agg?zone=abc",
	} {
		if rec := get(t, mux, url); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400 (body %q)", url, rec.Code, rec.Body.String())
		}
	}
}

// TestHandlersMalformedQuery pins the query-layer 400 paths: an
// inverted rectangle, an out-of-bounds point, a filter that does not
// parse, and an unknown aggregate op.
func TestHandlersMalformedQuery(t *testing.T) {
	mux := testMux(t, true)
	for _, url := range []string{
		"/field/point?row=99&col=0",
		"/field/point?row=-1&col=0",
		"/field/range?row0=5&col0=5&row1=1&col1=1",
		"/field/range?row0=0&col0=0&row1=2&col1=2&filter=value%20%3E%3E%203",
		"/field/agg?op=median",
	} {
		if rec := get(t, mux, url); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400 (body %q)", url, rec.Code, rec.Body.String())
		}
	}
}

// TestHandlersHappyPath sanity-checks that the extracted mux still
// serves real answers once a snapshot exists.
func TestHandlersHappyPath(t *testing.T) {
	mux := testMux(t, true)
	if rec := get(t, mux, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", rec.Code)
	}
	rec := get(t, mux, "/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("/snapshot = %d, want 200 (body %q)", rec.Code, rec.Body.String())
	}
	var snap map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/snapshot body does not parse: %v", err)
	}
	if v, ok := snap["version"].(float64); !ok || v != 1 {
		t.Errorf("/snapshot version = %v, want 1", snap["version"])
	}
	rec = get(t, mux, "/field/point?row=1&col=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("/field/point = %d, want 200 (body %q)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/field/point Content-Type = %q, want application/json", ct)
	}
	var pt struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pt); err != nil {
		t.Fatalf("/field/point body does not parse: %v", err)
	}
	if want := 17.0; pt.Value != want { // row 1, col 2 of the ramp (column-major: 2*8+1)
		t.Errorf("/field/point value = %v, want %v", pt.Value, want)
	}
}

// TestSnapshotReportsPipelineErrors: /snapshot reports the pipeline's
// completed windows and its last window error beside the latest
// snapshot, so a server whose windows have failed since that snapshot
// says why; after a clean window last_error is null.
func TestSnapshotReportsPipelineErrors(t *testing.T) {
	for _, pipe := range []stubPipeline{
		{windows: 1, err: errors.New("stream: window 7: all brokers failed")},
		{windows: 6},
	} {
		rec := get(t, testMuxPipe(t, true, pipe), "/snapshot")
		if rec.Code != http.StatusOK {
			t.Fatalf("/snapshot = %d, want 200 (body %q)", rec.Code, rec.Body.String())
		}
		var snap map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("/snapshot body does not parse: %v", err)
		}
		if w, ok := snap["windows"].(float64); !ok || int(w) != pipe.windows {
			t.Errorf("/snapshot windows = %v, want %d", snap["windows"], pipe.windows)
		}
		got, present := snap["last_error"]
		switch {
		case !present:
			t.Errorf("/snapshot has no last_error field (body %q)", rec.Body.String())
		case pipe.err == nil && got != nil:
			t.Errorf("/snapshot last_error = %v after a clean window, want null", got)
		case pipe.err != nil && got != pipe.err.Error():
			t.Errorf("/snapshot last_error = %v, want %q", got, pipe.err.Error())
		}
	}
}
