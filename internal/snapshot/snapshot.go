// Package snapshot holds versioned, immutable reconstructed-field
// snapshots and publishes them through an atomic-pointer swap: the query
// serving layer reads the latest snapshot lock-free (a single atomic
// load on the hot path, no mutex, no copy), while the streaming pipeline
// publishes a fresh snapshot per reconstruction window. A bounded ring
// of recent snapshots is retained for history.
package snapshot

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/sensor"
)

// Snapshot observability handles (no-ops until obs.Enable).
var (
	obsPublished = obs.GetCounter("snapshot.published")
	obsEvicted   = obs.GetCounter("snapshot.evicted")
	obsVersion   = obs.GetGauge("snapshot.version.latest")
	obsRetained  = obs.GetGauge("snapshot.retained")
)

// Snapshot is one immutable reconstructed-field version. Everything in it
// is frozen at publish time: readers on the serving path hold the pointer
// without synchronization, so neither the publisher nor any consumer may
// mutate a snapshot after Publish. Version 0 never exists — the first
// published snapshot is version 1.
type Snapshot struct {
	Version uint64      // assigned by Publish, strictly increasing from 1
	Step    int         // pipeline window index that produced it
	T       float64     // simulation time of the window
	Kind    sensor.Kind // field quantity
	Field   *field.Field

	// Supports maps zone ID → the support recovered for that zone, in
	// admission order — the warm-start seed for the next window's decode.
	Supports map[int][]int

	// Quality/degradation accounting for the window that produced this
	// snapshot. NMSE is against the live truth when known, else -1.
	NMSE          float64
	Measurements  int
	BrokersFailed int
	Shortfall     int
}

// ErrNoSnapshot reports a read before the first publish.
var ErrNoSnapshot = errors.New("snapshot: nothing published yet")

// Registry is the snapshot store: one atomically swapped "latest" pointer
// plus a bounded retention ring. Reads are lock-free; publishes serialize
// on a writer mutex that the read path never touches.
type Registry struct {
	cur atomic.Pointer[Snapshot]

	mu      sync.Mutex
	version uint64        // guarded by mu
	hist    []*Snapshot   // guarded by mu; oldest first, len ≤ retain
	retain  int           // immutable after New
	notify  chan struct{} // guarded by mu (swapped); closed on publish
	subs    []func(*Snapshot)
}

// NewRegistry creates a registry retaining the last retain snapshots
// (minimum 1: the latest snapshot is always retained).
func NewRegistry(retain int) *Registry {
	if retain < 1 {
		retain = 1
	}
	return &Registry{retain: retain, notify: make(chan struct{})}
}

// Latest returns the most recent snapshot without taking any lock — one
// atomic pointer load. Returns nil before the first publish; the serving
// layer maps that to ErrNoSnapshot.
func (r *Registry) Latest() *Snapshot { return r.cur.Load() }

// Subscribe registers fn to run synchronously after every publish (after
// the pointer swap, outside the registry lock). The serving layer uses it
// to invalidate per-zone result caches on snapshot swap. Subscribe before
// the pipeline starts; it is not safe concurrently with Publish.
func (r *Registry) Subscribe(fn func(*Snapshot)) {
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

// Publish assigns the next version to s, swaps it in as the latest
// snapshot, retains it in the history ring (evicting the oldest beyond
// the retention bound), and wakes waiters. The caller transfers
// ownership: s and everything it references must not be mutated after
// Publish returns. Returns the assigned version.
func (r *Registry) Publish(s *Snapshot) (uint64, error) {
	if s == nil || s.Field == nil {
		return 0, errors.New("snapshot: nil snapshot or field")
	}
	r.mu.Lock()
	r.version++
	s.Version = r.version
	r.hist = append(r.hist, s)
	evicted := 0
	if len(r.hist) > r.retain {
		evicted = len(r.hist) - r.retain
		r.hist = append(r.hist[:0:0], r.hist[evicted:]...)
	}
	r.cur.Store(s) // swap after version assignment, before waking waiters
	close(r.notify)
	r.notify = make(chan struct{})
	subs := r.subs
	retained := len(r.hist)
	r.mu.Unlock()

	obsPublished.Inc()
	obsEvicted.Add(int64(evicted))
	obsVersion.Set(float64(s.Version))
	obsRetained.Set(float64(retained))
	for _, fn := range subs {
		fn(s)
	}
	return s.Version, nil
}

// History returns the retained snapshots, oldest first. The returned
// slice is a copy; the snapshots themselves are shared and immutable.
func (r *Registry) History() []*Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Snapshot(nil), r.hist...)
}

// Len returns how many snapshots are currently retained.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.hist)
}

// WaitContext blocks until a snapshot with Version ≥ minVersion is
// published (returning the latest such snapshot) or ctx is done. The
// staleness-bound tests use it to observe exactly when the service
// recovers after a fault window.
func (r *Registry) WaitContext(ctx context.Context, minVersion uint64) (*Snapshot, error) {
	for {
		if s := r.cur.Load(); s != nil && s.Version >= minVersion {
			return s, nil
		}
		r.mu.Lock()
		ch := r.notify
		r.mu.Unlock()
		// Re-check after capturing the channel: a publish between the load
		// above and the capture would have closed the previous channel.
		if s := r.cur.Load(); s != nil && s.Version >= minVersion {
			return s, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("snapshot: wait for version %d: %w", minVersion, ctx.Err())
		case <-ch:
		}
	}
}
