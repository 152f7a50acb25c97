package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before the change is a regression; per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The runner reads units from it and
// refuses to emit a name it does not declare; compare reads the bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the root of
// the checkout under `go run ./bench`) or its parent (under `go test`,
// which runs in bench/).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// metric is one reported value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against the declared list. Every
// declared name starts at zero — on a per-layer metric that reads "this
// layer is not on this workload's path" — and each may be set once.
type metricSet struct {
	decls  map[string]metricDecl
	values map[string]float64 // holds the names that were set
}

func newMetricSet(decls []metricDecl) *metricSet {
	m := &metricSet{decls: map[string]metricDecl{}, values: map[string]float64{}}
	for _, d := range decls {
		m.decls[d.Name] = d
	}
	return m
}

// set records a value. Setting an undeclared name, or one name twice, is
// a bug in the benchmark and panics, so the smoke test cannot miss it.
func (m *metricSet) set(name string, v float64) {
	if _, ok := m.decls[name]; !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	if _, dup := m.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	m.values[name] = v
}

// names returns the declared names, sorted.
func (m *metricSet) names() []string {
	out := make([]string, 0, len(m.decls))
	for name := range m.decls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// result returns every declared metric with its unit.
func (m *metricSet) result() map[string]metric {
	out := make(map[string]metric, len(m.decls))
	for name, d := range m.decls {
		out[name] = metric{Value: m.values[name], Unit: d.Unit}
	}
	return out
}

// invalid lists metrics whose value cannot be reported: non-finite ones,
// and — when mustBeSet — ones the run never measured or measured as zero
// (end-to-end metrics are never zero by contract).
func (m *metricSet) invalid(mustBeSet bool) []string {
	var bad []string
	for _, name := range m.names() {
		v := m.values[name] // zero if never set
		if math.IsNaN(v) || math.IsInf(v, 0) || (mustBeSet && v == 0) {
			bad = append(bad, name)
		}
	}
	return bad
}
