// Package store is SenseDroid's data logging and retrieval layer (the
// paper lists "data management routines and interface to a light weight
// database such as SQLite"). It is an in-memory, append-mostly time-series
// store keyed by series name (typically "<node>/<sensor>"), with
// time-range queries, bounded retention and aggregate queries.
package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Store observability handles (no-ops until obs.Enable).
var (
	obsAppends   = obs.GetCounter("store.append.records")
	obsEvictions = obs.GetCounter("store.evicted.records")
	obsQueries   = obs.GetCounter("store.query.count")
)

// Record is one logged observation. T is simulation time in seconds.
type Record struct {
	T      float64
	Values []float64
}

// Store is a concurrency-safe multi-series log.
//
// A bounded series is stored with its evicted records still in front of
// the retained ones: the series is the newest maxPerKey records of the
// slice (retained), and the slice is cut back to them in place only once
// a quarter as many evicted records have piled up. A full series
// therefore appends in amortised O(1) and, its capacity settled, without
// allocating; shifting or re-copying on every append costs O(maxPerKey).
type Store struct {
	mu        sync.RWMutex
	series    map[string][]Record // guarded by mu; read through retained
	maxPerKey int                 // immutable after New; 0 = unbounded
}

// retained returns the records of a stored slice that are still in the
// series: all of them, or the newest maxPerKey.
func (s *Store) retained(recs []Record) []Record {
	if s.maxPerKey > 0 && len(recs) > s.maxPerKey {
		return recs[len(recs)-s.maxPerKey:]
	}
	return recs
}

// ErrNoSeries reports a query on an unknown series.
var ErrNoSeries = errors.New("store: no such series")

// New creates a store retaining at most maxPerKey records per series
// (0 = unbounded). Older records are evicted first.
func New(maxPerKey int) *Store {
	return &Store{series: make(map[string][]Record), maxPerKey: maxPerKey}
}

// Append logs a record. Records are expected in non-decreasing time order
// per series; out-of-order appends are inserted to keep the series sorted.
func (s *Store) Append(series string, r Record) error {
	if series == "" {
		return errors.New("store: empty series name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.series[series]
	if n := len(recs); n > 0 && r.T < recs[n-1].T {
		// Insert in order (rare path).
		i := sort.Search(n, func(i int) bool { return recs[i].T > r.T })
		recs = append(recs, Record{})
		copy(recs[i+1:], recs[i:])
		recs[i] = r
	} else {
		recs = append(recs, r)
	}
	if s.maxPerKey > 0 && len(recs) > s.maxPerKey {
		obsEvictions.Inc() // the append pushed the oldest retained record out
		if len(recs) > s.maxPerKey+s.maxPerKey/4 {
			n := copy(recs, s.retained(recs))
			clear(recs[n:]) // let go of the Values the moved records left behind
			recs = recs[:n]
		}
	}
	s.series[series] = recs
	obsAppends.Inc()
	return nil
}

// Query returns records of a series with T in [from, to], in time order.
func (s *Store) Query(series string, from, to float64) ([]Record, error) {
	obsQueries.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	recs, ok := s.series[series]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, series)
	}
	recs = s.retained(recs)
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].T >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].T > to })
	out := make([]Record, hi-lo)
	copy(out, recs[lo:hi])
	return out, nil
}

// Series returns all series names, sorted.
func (s *Store) Series() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for k := range s.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the record count of a series (0 if absent).
func (s *Store) Len(series string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.retained(s.series[series]))
}

// Stats summarizes the first value-column of a series over a time range.
type Stats struct {
	Count    int
	Min, Max float64
	Mean     float64
}

// Aggregate computes Stats over [from, to] of a series' first value.
func (s *Store) Aggregate(series string, from, to float64) (Stats, error) {
	recs, err := s.Query(series, from, to)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, r := range recs {
		if len(r.Values) == 0 {
			continue
		}
		v := r.Values[0]
		st.Count++
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	if st.Count > 0 {
		st.Mean = sum / float64(st.Count)
	} else {
		st.Min, st.Max = 0, 0
	}
	return st, nil
}
