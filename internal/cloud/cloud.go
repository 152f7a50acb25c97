// Package cloud implements the upper tiers of the paper's Fig. 1
// hierarchy: a ZoneEnv mapping each zone's local grid onto the global
// field, a LocalCloud that concatenates the gathers of its NanoCloud
// brokers and reconstructs its zone, and a PublicCloud that divides the
// total measurement budget across zones — uniformly (the Luo-style global
// baseline) or adaptively by local sparsity and criticality (the paper's
// hierarchical scheme) — and assembles the global field from the zone
// reconstructions.
package cloud

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/broker"
	"repro/internal/field"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sensor"
)

// Cloud-tier observability handles (no-ops until obs.Enable). Assembly
// latency comes from the span auto-histogram "span.cloud.assemble.ms".
var (
	obsAssembleRounds = obs.GetCounter("cloud.assemble.rounds")
	obsAssembleZones  = obs.GetCounter("cloud.assemble.zones")
	obsAssembleBudget = obs.GetCounter("cloud.assemble.budget")
	// Zone-degradation view: how many constituent brokers the most recent
	// zone gather lost, and how far under budget it landed after
	// redistribution. Counters accumulate across rounds for rate views.
	obsGatherBrokersFailedLast = obs.GetGauge("cloud.gather.brokers_failed.last")
	obsGatherShortfallLast     = obs.GetGauge("cloud.gather.shortfall.last")
	obsGatherBrokersFailed     = obs.GetCounter("cloud.gather.brokers_failed")
	obsGatherShortfall         = obs.GetCounter("cloud.gather.shortfall")
)

// ZoneEnv exposes one zone of a (live) global field as a node.Environment:
// grid indices are zone-local, physical area spans the zone with the given
// meters-per-cell scale.
type ZoneEnv struct {
	mu     sync.RWMutex
	global *field.Field
	zone   field.Zone
	scale  float64 // meters per grid cell
}

// NewZoneEnv wraps a zone of the global field.
func NewZoneEnv(global *field.Field, zone field.Zone, metersPerCell float64) (*ZoneEnv, error) {
	if global == nil {
		return nil, errors.New("cloud: nil global field")
	}
	if metersPerCell <= 0 {
		metersPerCell = 10
	}
	if zone.Row0+zone.H > global.H || zone.Col0+zone.W > global.W {
		return nil, fmt.Errorf("cloud: zone %d exceeds field bounds", zone.ID)
	}
	return &ZoneEnv{global: global, zone: zone, scale: metersPerCell}, nil
}

// SetGlobal swaps the live global field (e.g. the next time step).
func (z *ZoneEnv) SetGlobal(f *field.Field) {
	z.mu.Lock()
	z.global = f
	z.mu.Unlock()
}

// FieldValue returns the global truth at a zone-local grid index.
func (z *ZoneEnv) FieldValue(kind sensor.Kind, gridIdx int) float64 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	sub := field.Field{W: z.zone.W, H: z.zone.H}
	r, c := sub.Loc(gridIdx)
	return z.global.At(z.zone.Row0+r, z.zone.Col0+c)
}

// GridDims returns the zone grid dimensions.
func (z *ZoneEnv) GridDims() (int, int) { return z.zone.W, z.zone.H }

// AreaDims returns the zone's physical extent in meters.
func (z *ZoneEnv) AreaDims() (float64, float64) {
	return float64(z.zone.W) * z.scale, float64(z.zone.H) * z.scale
}

// Zone returns the wrapped zone.
func (z *ZoneEnv) Zone() field.Zone {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.zone
}

// SetCriticality updates the zone's criticality weight used by adaptive
// budgeting.
func (z *ZoneEnv) SetCriticality(c float64) {
	z.mu.Lock()
	z.zone.Criticality = c
	z.mu.Unlock()
}

var _ node.Environment = (*ZoneEnv)(nil)

// --- LocalCloud -----------------------------------------------------------------

// LocalCloud owns one zone: several NanoCloud brokers whose merged
// telemetry reconstructs the zone subfield.
type LocalCloud struct {
	Env     *ZoneEnv
	Brokers []*broker.Broker
}

// NewLocalCloud groups brokers under a zone environment.
func NewLocalCloud(env *ZoneEnv, brokers ...*broker.Broker) (*LocalCloud, error) {
	if env == nil {
		return nil, errors.New("cloud: nil zone environment")
	}
	if len(brokers) == 0 {
		return nil, errors.New("cloud: local cloud needs at least one broker")
	}
	return &LocalCloud{Env: env, Brokers: brokers}, nil
}

// GatherContext splits the zone's measurement budget evenly across the
// LC's NanoCloud brokers and concatenates their telemetry, deduplicating
// grid cells ("the nodes … concatenate the results of the NCs for the local
// region"). Infrastructure fallback inside each broker keeps the total on
// budget even when mobile coverage is short.
//
// Every broker round is bounded by ctx, and the zone degrades gracefully:
// a broker whose round fails outright does not abort the zone — its
// budget share is redistributed to the surviving brokers (and their infra
// fallback) in a top-up pass, and the degradation is reported in the
// merged result's BrokersFailed and Shortfall fields. Each broker gathers
// with the cells already covered by its predecessors excluded, so the
// merge is duplicate-free and on-budget by construction rather than by
// dropping overlaps after the fact. Cancellation still aborts the zone:
// ctx expiry is the caller's decision, not a broker fault.
func (lc *LocalCloud) GatherContext(ctx context.Context, kind sensor.Kind, m int) (*broker.GatherResult, error) {
	if m <= 0 {
		return nil, errors.New("cloud: budget must be positive")
	}
	per := m / len(lc.Brokers)
	extra := m % len(lc.Brokers)
	merged := &broker.GatherResult{}
	seen := map[int]bool{}
	alive := make([]*broker.Broker, 0, len(lc.Brokers))
	for i, br := range lc.Brokers {
		want := per
		if i < extra {
			want++
		}
		if want == 0 {
			alive = append(alive, br)
			continue
		}
		g, err := br.GatherExcludingContext(ctx, kind, want, seen)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("cloud: broker %s: %w", br.ID, err)
			}
			merged.BrokersFailed++
			continue
		}
		alive = append(alive, br)
		mergeGather(merged, g, seen)
	}
	// Top-up pass: redistribute the shortfall — failed brokers' shares
	// plus any partial (infra-outage) rounds — across the survivors.
	for _, br := range alive {
		if len(merged.Locs) >= m {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cloud: zone top-up abandoned: %w", err)
		}
		g, err := br.GatherExcludingContext(ctx, kind, m-len(merged.Locs), seen)
		if err != nil {
			continue // already counted alive; a failed top-up just leaves the shortfall
		}
		mergeGather(merged, g, seen)
	}
	if len(merged.Locs) == 0 {
		return nil, fmt.Errorf("cloud: zone gather produced no measurements (%d of %d brokers failed)",
			merged.BrokersFailed, len(lc.Brokers))
	}
	merged.Shortfall = m - len(merged.Locs)
	obsGatherBrokersFailedLast.Set(float64(merged.BrokersFailed))
	obsGatherShortfallLast.Set(float64(merged.Shortfall))
	obsGatherBrokersFailed.Add(int64(merged.BrokersFailed))
	obsGatherShortfall.Add(int64(merged.Shortfall))
	return merged, nil
}

// mergeGather appends one broker round to the zone merge. The exclusion
// set passed to GatherExcludingContext makes cross-broker duplicates
// impossible; the seen guard here only defends the invariant.
func mergeGather(merged, g *broker.GatherResult, seen map[int]bool) {
	for j, loc := range g.Locs {
		if seen[loc] {
			continue
		}
		seen[loc] = true
		merged.Locs = append(merged.Locs, loc)
		merged.Values = append(merged.Values, g.Values[j])
		merged.Sigmas = append(merged.Sigmas, g.Sigmas[j])
		if j < len(g.NodeIDs) {
			merged.NodeIDs = append(merged.NodeIDs, g.NodeIDs[j])
		} else {
			merged.NodeIDs = append(merged.NodeIDs, "")
		}
	}
	merged.NodesUsed += g.NodesUsed
	merged.InfraUsed += g.InfraUsed
	merged.Denied += g.Denied
}

// ReconstructContext gathers m measurements across the LC's brokers, the
// gather rounds bounded by ctx, and recovers the zone subfield.
func (lc *LocalCloud) ReconstructContext(ctx context.Context, kind sensor.Kind, m int, opts broker.ReconstructOptions) (*broker.Reconstruction, error) {
	g, err := lc.GatherContext(ctx, kind, m)
	if err != nil {
		return nil, err
	}
	return lc.Brokers[0].ReconstructFrom(g, opts)
}

// --- PublicCloud -----------------------------------------------------------------

// PublicCloud assembles the global field from its local clouds.
type PublicCloud struct {
	W, H int
	LCs  []*LocalCloud
}

// NewPublicCloud validates that the LCs tile a w×h field.
func NewPublicCloud(w, h int, lcs []*LocalCloud) (*PublicCloud, error) {
	if len(lcs) == 0 {
		return nil, errors.New("cloud: public cloud needs local clouds")
	}
	covered := 0
	for _, lc := range lcs {
		z := lc.Env.Zone()
		covered += z.W * z.H
	}
	if covered != w*h {
		return nil, fmt.Errorf("cloud: zones cover %d cells of %d", covered, w*h)
	}
	return &PublicCloud{W: w, H: h, LCs: lcs}, nil
}

// BudgetPlan maps zone ID → measurement count.
type BudgetPlan map[int]int

// UniformBudget splits the total budget evenly across zones — the global
// baseline that ignores regional fluctuations.
func (pc *PublicCloud) UniformBudget(total int) BudgetPlan {
	plan := BudgetPlan{}
	per := total / len(pc.LCs)
	extra := total % len(pc.LCs)
	for i, lc := range pc.LCs {
		m := per
		if i < extra {
			m++
		}
		plan[lc.Env.Zone().ID] = m
	}
	return plan
}

// AdaptiveBudget allocates the total budget proportionally to each zone's
// estimated local sparsity (from prior data) times its criticality — the
// paper's "number of random observations from any region should correspond
// to the local spatio-temporal sparsity … multi-resolution compressive
// thresholds based on the size and importance". Every zone keeps a minimum
// of minPerZone measurements, and no zone exceeds its cell count.
func (pc *PublicCloud) AdaptiveBudget(total int, prior *field.Field, energyFrac float64, minPerZone int) (BudgetPlan, error) {
	if prior == nil {
		return nil, errors.New("cloud: adaptive budget needs a prior field")
	}
	if prior.W != pc.W || prior.H != pc.H {
		return nil, fmt.Errorf("cloud: prior field %dx%d, want %dx%d", prior.H, prior.W, pc.H, pc.W)
	}
	if minPerZone < 1 {
		minPerZone = 1
	}
	// The proportional term below distributes total - minPerZone·zones on
	// top of the per-zone floor; if the total cannot even fund the floors
	// that term goes negative and would push zones below their minimum, so
	// reject the plan instead of silently producing one.
	if total < minPerZone*len(pc.LCs) {
		return nil, fmt.Errorf("cloud: total budget %d cannot fund the %d-measurement minimum for %d zones",
			total, minPerZone, len(pc.LCs))
	}
	type zinfo struct {
		id     int
		weight float64
		cells  int
	}
	infos := make([]zinfo, 0, len(pc.LCs))
	sum := 0.0
	for _, lc := range pc.LCs {
		z := lc.Env.Zone()
		sub := field.Extract(prior, z)
		k, err := field.LocalSparsity(sub, energyFrac)
		if err != nil {
			return nil, err
		}
		crit := z.Criticality
		if crit <= 0 {
			crit = 1
		}
		w := (float64(k) + 1) * crit
		infos = append(infos, zinfo{id: z.ID, weight: w, cells: z.W * z.H})
		sum += w
	}
	plan := BudgetPlan{}
	used := 0
	for _, zi := range infos {
		m := minPerZone + int(float64(total-minPerZone*len(infos))*zi.weight/sum)
		if m > zi.cells {
			m = zi.cells
		}
		plan[zi.id] = m
		used += m
	}
	// Distribute rounding remainder to the heaviest zones.
	for used < total {
		grew := false
		for _, zi := range infos {
			if used >= total {
				break
			}
			if plan[zi.id] < zi.cells {
				plan[zi.id]++
				used++
				grew = true
			}
		}
		if !grew {
			break // every zone saturated
		}
	}
	return plan, nil
}

// ZoneReport is one zone's reconstruction outcome.
type ZoneReport struct {
	Zone           field.Zone
	Reconstruction *broker.Reconstruction
	Budget         int
}

// AssembleContext runs every LC's reconstruction under the budget plan and
// stitches the zone subfields into the global estimate. Zones are
// independent — each LC owns its brokers, nodes, and RNG streams — so their
// reconstructions fan out across min(zones, GOMAXPROCS) workers; results
// are stitched in LC order afterwards, which keeps the assembled field and
// reports identical to a serial run at any GOMAXPROCS.
//
// The first zone failure cancels the remaining zones so an assembly does
// not drain the full plan after its outcome is already decided; the
// reported error is still deterministic — the scan below prefers the
// lowest-index zone whose failure was not itself the cancellation — so the
// caller sees the same error at any GOMAXPROCS.
//
// seeds maps zone ID → the support recovered for that zone in a previous
// assembly (ZoneReport.Reconstruction.Result.Support). Each zone's decode
// warm-starts from its own seed; zones absent from the map (all of them
// under nil seeds) decode cold. This is the streaming pipeline's
// window-to-window fast path — on a slowly-varying field an unchanged zone
// support skips the greedy search entirely. The seeds map is read-only
// here, so one map can safely serve the concurrent zone fan-out.
func (pc *PublicCloud) AssembleContext(ctx context.Context, kind sensor.Kind, plan BudgetPlan, opts broker.ReconstructOptions, seeds map[int][]int) (*field.Field, map[int]*ZoneReport, error) {
	sp := obs.StartSpan("cloud.assemble")
	sp.Label("zones", fmt.Sprint(len(pc.LCs)))
	defer sp.Finish()
	zctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type zoneOut struct {
		rec *broker.Reconstruction
		m   int
		err error
	}
	outs := make([]zoneOut, len(pc.LCs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pc.LCs) {
		workers = len(pc.LCs)
	}
	reconstruct := func(i int) {
		lc := pc.LCs[i]
		z := lc.Env.Zone()
		m, ok := plan[z.ID]
		if !ok || m <= 0 {
			outs[i].err = fmt.Errorf("cloud: no budget for zone %d", z.ID)
			cancel()
			return
		}
		zOpts := opts
		zOpts.SeedSupport = seeds[z.ID] // nil for unseeded zones → cold decode
		rec, err := lc.ReconstructContext(zctx, kind, m, zOpts)
		if err != nil {
			outs[i].err = fmt.Errorf("cloud: zone %d: %w", z.ID, err)
			cancel()
			return
		}
		outs[i] = zoneOut{rec: rec, m: m}
	}
	if workers <= 1 {
		for i := range pc.LCs {
			reconstruct(i)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					reconstruct(i)
				}
			}()
		}
		for i := range pc.LCs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	// Deterministic error choice: the first zone (in LC order) that failed
	// for a reason of its own beats any zone that merely observed the
	// cancellation triggered by a sibling.
	var cancelled error
	for i := range outs {
		if err := outs[i].err; err != nil {
			if errors.Is(err, context.Canceled) && ctx.Err() == nil {
				if cancelled == nil {
					cancelled = err
				}
				continue
			}
			return nil, nil, err
		}
	}
	if cancelled != nil {
		return nil, nil, cancelled
	}
	global := field.New(pc.W, pc.H)
	reports := make(map[int]*ZoneReport, len(pc.LCs))
	for i, lc := range pc.LCs {
		z := lc.Env.Zone()
		if err := field.Insert(global, z, outs[i].rec.Field); err != nil {
			return nil, nil, err
		}
		reports[z.ID] = &ZoneReport{Zone: z, Reconstruction: outs[i].rec, Budget: outs[i].m}
		obsAssembleZones.Inc()
		obsAssembleBudget.Add(int64(outs[i].m))
	}
	obsAssembleRounds.Inc()
	return global, reports, nil
}
