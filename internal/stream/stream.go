// Package stream is the continuous-service mode of the middleware: a
// long-lived pipeline that re-senses the field on a sliding window,
// reconstructs each window through the hierarchical assembly path, and
// publishes every reconstruction as a versioned immutable snapshot. Each
// window's per-zone decode warm-starts from the support the previous
// window recovered for that zone, so on a slowly-varying field the
// steady-state cost per window is one residual check plus a final solve
// instead of a full greedy search.
package stream

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// Pipeline observability handles (no-ops until obs.Enable).
var (
	obsWindows    = obs.GetCounter("stream.windows")
	obsWindowErrs = obs.GetCounter("stream.window.errors")
	obsSeededZn   = obs.GetCounter("stream.zones.seeded")
	obsNMSE       = obs.GetGauge("stream.nmse")
	obsWindowMs   = obs.GetHistogram("stream.window.ms", obs.LatencyBuckets)
)

// Config parameterizes a streaming pipeline, which maps temperature with
// the broker's default per-zone decode.
type Config struct {
	Budget   int           // global measurement budget per window (required)
	Interval time.Duration // Run cadence (default 100ms)

	// WarmStart seeds each zone's decode with the support that zone
	// recovered in the previous window. SeedRelTol bounds how much
	// residual the inherited support may leave before the decode restarts
	// cold (0 keeps any linearly independent seed).
	WarmStart  bool
	SeedRelTol float64

	// Evolve produces the ground truth for window step at simulation time
	// t — the simulated physical world. Nil leaves the truth untouched
	// (a static field).
	Evolve func(step int, t float64) *field.Field
	DT     float64 // simulation seconds per window (default 1)

	// Store, when set, receives one record per window on the "stream.window"
	// series with values [nmse, measurements, shortfall, brokersFailed].
	Store *store.Store
}

// Pipeline drives windows of sense→reconstruct→publish against a deployed
// hierarchy. StepContext is the unit of work; RunContext loops it on a
// ticker; Start and Stop manage a background RunContext.
type Pipeline struct {
	sd  *core.SenseDroid
	reg *snapshot.Registry
	cfg Config

	mu      sync.Mutex
	step    int           // guarded by mu
	t       float64       // guarded by mu
	prev    map[int][]int // guarded by mu; zone ID → last recovered support
	lastErr error         // guarded by mu
	cancel  context.CancelFunc
	done    chan struct{}
}

// New validates the config and binds a pipeline to a deployment and a
// snapshot registry.
func New(sd *core.SenseDroid, reg *snapshot.Registry, cfg Config) (*Pipeline, error) {
	if sd == nil || reg == nil {
		return nil, errors.New("stream: nil deployment or registry")
	}
	if cfg.Budget <= 0 {
		return nil, errors.New("stream: per-window budget must be positive")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.DT <= 0 {
		cfg.DT = 1
	}
	return &Pipeline{sd: sd, reg: reg, cfg: cfg, prev: map[int][]int{}}, nil
}

// Windows returns how many windows have completed successfully.
func (p *Pipeline) Windows() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.step
}

// LastErr returns the most recent window error (nil after a clean window).
func (p *Pipeline) LastErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastErr
}

// Step runs one window to completion. It is the one context-less wrapper
// left, because bench/ calls it by name; use StepContext everywhere else.
func (p *Pipeline) Step() (*snapshot.Snapshot, error) {
	return p.StepContext(context.Background())
}

// StepContext runs one window: advance the simulated world, gather the
// per-window budget through the hierarchy (warm-starting each zone from
// its previous support when enabled), publish the reconstruction as the
// next snapshot, and record quality accounting. A failed window publishes
// nothing — the registry keeps serving the last good snapshot, which is
// what bounds staleness under faults — and leaves the warm-start state
// untouched so recovery resumes from the last good supports.
func (p *Pipeline) StepContext(ctx context.Context) (*snapshot.Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var begin time.Time
	if obs.Enabled() {
		begin = time.Now()
	}
	stepNo := p.step + 1
	t := p.t + p.cfg.DT
	if p.cfg.Evolve != nil {
		if err := p.sd.SetTruth(p.cfg.Evolve(stepNo, t)); err != nil {
			return nil, p.failLocked(err)
		}
	}
	p.sd.Tick(p.cfg.DT)

	plan := p.sd.Public.UniformBudget(p.cfg.Budget)
	var opts broker.ReconstructOptions
	var seeds map[int][]int
	if p.cfg.WarmStart && len(p.prev) > 0 {
		seeds = p.prev
		opts.SeedRelTol = p.cfg.SeedRelTol
		obsSeededZn.Add(int64(len(seeds)))
	}
	global, reports, err := p.sd.Public.AssembleContext(ctx, sensor.Temperature, plan, opts, seeds)
	if err != nil {
		return nil, p.failLocked(err)
	}

	s := &snapshot.Snapshot{
		Step:     stepNo,
		T:        t,
		Kind:     sensor.Temperature,
		Field:    global,
		Supports: make(map[int][]int, len(reports)),
		NMSE:     cs.NMSE(p.sd.Truth.Data, global.Data),
	}
	next := make(map[int][]int, len(reports))
	for id, rep := range reports {
		sup := rep.Reconstruction.Result.Support
		s.Supports[id] = sup
		next[id] = sup
		s.Measurements += len(rep.Reconstruction.Gather.Locs)
		s.BrokersFailed += rep.Reconstruction.Gather.BrokersFailed
		s.Shortfall += rep.Reconstruction.Gather.Shortfall
	}
	if _, err := p.reg.Publish(s); err != nil {
		return nil, p.failLocked(err)
	}
	p.prev = next
	p.step = stepNo
	p.t = t
	p.lastErr = nil

	obsWindows.Inc()
	obsNMSE.Set(s.NMSE)
	if obs.Enabled() {
		obsWindowMs.Observe(float64(time.Since(begin)) / float64(time.Millisecond))
	}
	if p.cfg.Store != nil {
		rec := store.Record{T: t, Values: []float64{
			s.NMSE, float64(s.Measurements), float64(s.Shortfall), float64(s.BrokersFailed),
		}}
		if serr := p.cfg.Store.Append("stream.window", rec); serr != nil {
			return nil, p.failLocked(serr)
		}
	}
	return s, nil
}

// failLocked records a window failure; callers hold p.mu.
func (p *Pipeline) failLocked(err error) error {
	p.lastErr = err
	obsWindowErrs.Inc()
	return err
}

// RunContext loops windows on the ticker until ctx is done, and returns
// ctx's error. A failed window does not stop the
// loop — continuous service rides through degraded rounds and the
// registry keeps serving the last good snapshot; the failure is counted
// and retrievable via LastErr.
func (p *Pipeline) RunContext(ctx context.Context) error {
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if _, err := p.StepContext(ctx); err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
}

// Start launches RunContext in a background goroutine. The goroutine
// exits when Stop cancels its context.
func (p *Pipeline) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done != nil {
		return errors.New("stream: pipeline already running")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	p.cancel, p.done = cancel, done
	go func() {
		defer close(done)
		//lint:ignore errcheck a background run ends only by Stop's cancellation; window failures surface via LastErr
		_ = p.RunContext(ctx)
	}()
	return nil
}

// Stop cancels the background run and waits for it to exit. Safe to call
// when not running.
func (p *Pipeline) Stop() {
	p.mu.Lock()
	cancel, done := p.cancel, p.done
	p.cancel, p.done = nil, nil
	p.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}
