// Package broker implements the NanoCloud broker of the paper's Fig. 2:
// the head node that registers mobile nodes, performs stochastic (random)
// spatial sampling by commanding and telemetering a selected subset of
// them, falls back to infrastructure sensors when mobile coverage is
// short, and reconstructs its region's spatial field with the
// compressive-sensing core.
package broker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/basis"
	"repro/internal/bus"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sensor"
)

// Broker observability handles (no-ops until obs.Enable). Gather latency
// comes from the span auto-histogram "span.broker.gather.ms".
var (
	obsGatherRounds  = obs.GetCounter("broker.gather.rounds")
	obsGatherMobile  = obs.GetCounter("broker.gather.mobile")
	obsGatherInfra   = obs.GetCounter("broker.gather.infra")
	obsGatherDenied  = obs.GetCounter("broker.gather.denied")
	obsReconRounds   = obs.GetCounter("broker.reconstruct.rounds")
	obsReconIters    = obs.GetHistogram("broker.reconstruct.iterations", obs.CountBuckets)
	obsReconSupport  = obs.GetHistogram("broker.reconstruct.support", obs.CountBuckets)
	obsReconResidual = obs.GetGauge("broker.reconstruct.residual.last")
)

// Config configures a broker.
type Config struct {
	ID      string
	Seed    int64
	Timeout time.Duration // per-node request timeout (default 2 s)
}

// Retry policy of every per-node request: the first try plus two
// retries, backing off from 5 ms.
const (
	retryAttempts = 3
	retryBackoff  = 5 * time.Millisecond
)

// infraSigma is the noise std-dev of infrastructure sensors.
const infraSigma = 0.05

// Broker orchestrates one NanoCloud.
type Broker struct {
	ID  string
	Bus *bus.Bus

	env       node.Environment
	rng       *rand.Rand
	timeout   time.Duration
	retrySeed int64

	mu      sync.Mutex
	nodes   []member  // guarded by mu; sorted by ID
	infraOK bool      // guarded by mu; infrastructure fallback available
	rounds  sync.Pool // of *round; gathers on one broker may overlap
}

// member is a registered node with the measure topic Register built.
type member struct{ id, topic string }

// round is one gather's scratch: the roster in solicitation order, a call
// and a reading per request of a wave, the cells taken, the shared body.
type round struct {
	order    []member
	calls    []bus.Call
	readings []node.FieldReading
	taken    []bool
	body     []byte
}

// New creates a broker for a NanoCloud whose nodes observe env.
func New(cfg Config, b *bus.Bus, env node.Environment) (*Broker, error) {
	if cfg.ID == "" {
		return nil, errors.New("broker: empty ID")
	}
	if b == nil || env == nil {
		return nil, errors.New("broker: nil bus or environment")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	return &Broker{
		ID: cfg.ID, Bus: b, env: env,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		timeout:   cfg.Timeout,
		retrySeed: cfg.Seed,
		infraOK:   true,
		rounds:    sync.Pool{New: func() any { return new(round) }},
	}, nil
}

// SetInfraEnabled toggles the infrastructure-sensor fallback (default
// on). Modelling a regional infra outage: with it off, a gather round
// that cannot fill its budget from mobile nodes returns a partial result
// with Shortfall set — or an error if nothing at all was gathered.
func (br *Broker) SetInfraEnabled(on bool) {
	br.mu.Lock()
	br.infraOK = on
	br.mu.Unlock()
}

func (br *Broker) infraEnabled() bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.infraOK
}

// Register adds a node to the broker's roster. The node must serve its
// measure command on the broker's bus under this broker's ID
// (Node.AttachBus, or Node.Serve behind a TCP client of that bus).
func (br *Broker) Register(nodeID string) error {
	if nodeID == "" {
		return errors.New("broker: empty node ID")
	}
	br.mu.Lock()
	defer br.mu.Unlock()
	i, found := slices.BinarySearchFunc(br.nodes, nodeID, byID)
	if found {
		return fmt.Errorf("broker: node %q already registered", nodeID)
	}
	br.nodes = slices.Insert(br.nodes, i, member{nodeID, node.MeasureTopic(br.ID, nodeID)})
	return nil
}

func byID(m member, id string) int { return strings.Compare(m.id, id) }

// Unregister removes a node from the roster, returning whether it was
// registered. This is the churn path: a node that leaves the NanoCloud
// (battery death, mobility handoff, simulated crash) must be
// unregistered before its ID can be recycled, because Register refuses
// duplicate IDs. Callers should Detach the node's bus handlers as well;
// the broker itself holds no other per-node state, so an
// Unregister+Detach leaves nothing for a future node with the same ID
// to inherit.
func (br *Broker) Unregister(nodeID string) bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	i, found := slices.BinarySearchFunc(br.nodes, nodeID, byID)
	if found {
		br.nodes = slices.Delete(br.nodes, i, i+1)
	}
	return found
}

// Nodes returns the registered node IDs, sorted.
func (br *Broker) Nodes() []string {
	br.mu.Lock()
	defer br.mu.Unlock()
	out := make([]string, len(br.nodes))
	for i, m := range br.nodes {
		out[i] = m.id
	}
	return out
}

// scatter runs one request per call, each under the broker's retry
// policy: every attempt is bounded by the broker's per-request timeout,
// transient failures (node down, attempt timeout) are retried with
// seeded-jitter backoff, and the whole exchange stays inside the
// caller's context. The calls overlap as far as the bus allows
// (bus.Scatter); their outcomes land in calls[i].Err.
func (br *Broker) scatter(ctx context.Context, calls []bus.Call) {
	bus.Scatter(ctx, br.Bus, br.ID, calls, bus.RetryPolicy{
		Attempts:       retryAttempts,
		AttemptTimeout: br.timeout,
		BaseBackoff:    retryBackoff,
		Seed:           br.retrySeed,
	})
}

// GatherResult is the outcome of one telemetry round (GatherContext).
type GatherResult struct {
	Locs      []int     // grid indices (one per measurement)
	Values    []float64 // measured values
	Sigmas    []float64 // per-measurement noise std-devs (GLS weights)
	NodeIDs   []string  // contributing node per mobile measurement ("" for infra)
	NodesUsed int
	InfraUsed int

	// The reading ledger: every measure call of the round counts once, in
	// NodesUsed when its reading was kept, in Denied when the node's
	// privacy policy refused it, in Discarded when its cell was a
	// duplicate or off the grid, or in Failed when the call itself failed
	// (Err set after its retries).
	Denied    int
	Discarded int
	Failed    int

	// Degradation accounting. BrokersFailed counts constituent brokers
	// whose round failed outright (populated by zone-level merges; always
	// 0 for a single broker's round). Shortfall is how far the round came
	// in under the requested budget after every fallback was exhausted —
	// non-zero only when the round was degraded, e.g. by an infra outage.
	BrokersFailed int
	Shortfall     int
}

// NewGatherResult returns an empty result with room for m readings.
func NewGatherResult(m int) *GatherResult {
	cols := make([]float64, 2*m) // Values, then Sigmas
	return &GatherResult{Locs: make([]int, 0, m), Values: cols[:0:m], Sigmas: cols[m:m], NodeIDs: make([]string, 0, m)}
}

// GatherContext is one telemetry round for the given sensor kind: the
// broker randomly selects up to m registered nodes (stochastic spatial
// sampling), commands each to measure kind, and collects the readings. If
// fewer than m distinct grid cells respond — nodes may be unreachable,
// privacy-denied, or co-located — the broker tops up with
// infrastructure-sensor measurements at random uncovered cells, per the
// paper's fallback. Cancelling ctx ends every request in flight and every
// one not yet sent, so a cancelled round returns promptly instead of
// draining the full roster at one timeout per unreachable node.
func (br *Broker) GatherContext(ctx context.Context, kind sensor.Kind, m int) (*GatherResult, error) {
	return br.GatherExcludingContext(ctx, kind, m, nil)
}

// GatherExcludingContext is GatherContext with a set of grid cells the
// round must not measure — cells another broker in the same zone already
// covered. The zone merge uses it to redistribute a failed or short
// broker's budget to survivors without re-buying duplicate coverage.
// exclude is nil (no exclusions) or one flag per grid cell, true where the
// cell is excluded. The budget clamps to the cells actually available once
// exclusions are removed. A reading from a cell outside the grid is
// dropped like a duplicate: it has no place in the region's field. A
// round that gathers nothing returns an error together with its result,
// which then holds no reading, only the ledger of the calls it made.
func (br *Broker) GatherExcludingContext(ctx context.Context, kind sensor.Kind, m int, exclude []bool) (*GatherResult, error) {
	if m <= 0 {
		return nil, errors.New("broker: measurement count must be positive")
	}
	sp := obs.StartSpan("broker.gather")
	sp.Label("broker", br.ID)
	defer sp.Finish()
	gw, gh := br.env.GridDims()
	n := gw * gh
	if exclude != nil && len(exclude) != n {
		return nil, fmt.Errorf("broker: exclusion set of %d cells for a %d-cell grid", len(exclude), n)
	}
	avail := n
	for _, ex := range exclude {
		if ex {
			avail--
		}
	}
	if m > avail {
		m = avail
	}
	if m == 0 {
		return nil, errors.New("broker: no cells available after exclusions")
	}
	r := br.rounds.Get().(*round)
	defer br.rounds.Put(r)
	ids := br.order(r.order[:0])
	res := NewGatherResult(m)
	// taken marks the cells the round may not measure (again): the
	// excluded ones and those a reading already covered.
	taken := append(r.taken[:0], make([]bool, n)...)
	copy(taken, exclude)
	// The roster is solicited in waves of exactly the readings still
	// missing. A wave that size cannot overshoot: even if every node in it
	// answers from a fresh cell the budget fills at its last reading, so
	// it asks only nodes a one-at-a-time walk would have asked, and
	// folding the replies in roster order gives that walk's result.
	readings := append(r.readings[:0], make([]node.FieldReading, min(m, len(ids)))...)
	calls := append(r.calls[:0], make([]bus.Call, len(readings))...)
	r.order, r.taken, r.readings, r.calls = ids, taken, readings, calls
	r.body, _ = node.MeasureRequest{Kind: kind.String()}.AppendJSON(r.body[:0]) // cannot fail
	for next := 0; next < len(ids) && len(res.Locs) < m; {
		wave := ids[next:min(next+m-len(res.Locs), len(ids))]
		next += len(wave)
		for i, nd := range wave {
			readings[i] = node.FieldReading{NodeID: nd.id}
			calls[i] = bus.NewCall(nd.topic, nd.id, r.body, &readings[i])
		}
		br.scatter(ctx, calls[:len(wave)])
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("broker: gather round abandoned: %w", err)
		}
		for i := range wave {
			reading := &readings[i]
			if calls[i].Err != nil {
				res.Failed++
				continue
			}
			if reading.Denied {
				res.Denied++
				continue
			}
			cell := reading.GridIdx
			if cell < 0 || cell >= n || taken[cell] {
				res.Discarded++ // a duplicate or off-grid cell adds no spatial information
				continue
			}
			taken[cell] = true
			res.Locs = append(res.Locs, cell)
			res.Values = append(res.Values, reading.Value)
			res.Sigmas = append(res.Sigmas, reading.Sigma)
			res.NodeIDs = append(res.NodeIDs, reading.NodeID)
			res.NodesUsed++
		}
	}
	// Infrastructure fallback for the shortfall (unless the outage model
	// has taken the region's infra sensors offline).
	if len(res.Locs) < m && br.infraEnabled() {
		free := make([]int, 0, n)
		for i, t := range taken {
			if !t {
				free = append(free, i)
			}
		}
		br.mu.Lock()
		br.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		need := m - len(res.Locs)
		if need > len(free) {
			need = len(free)
		}
		for _, cell := range free[:need] {
			v := br.env.FieldValue(kind, cell) + br.rng.NormFloat64()*infraSigma
			res.Locs = append(res.Locs, cell)
			res.Values = append(res.Values, v)
			res.Sigmas = append(res.Sigmas, infraSigma)
			res.NodeIDs = append(res.NodeIDs, "")
			res.InfraUsed++
		}
		br.mu.Unlock()
	}
	if len(res.Locs) == 0 {
		// The result still carries the round's ledger, so a zone merge
		// can account for every call the failed round made.
		return res, errors.New("broker: no measurements gathered")
	}
	res.Shortfall = m - len(res.Locs)
	obsGatherRounds.Inc()
	obsGatherMobile.Add(int64(res.NodesUsed))
	obsGatherInfra.Add(int64(res.InfraUsed))
	obsGatherDenied.Add(int64(res.Denied))
	return res, nil
}

// order appends the roster to dst in solicitation order: a uniform
// shuffle, the paper's stochastic spatial sampling.
func (br *Broker) order(dst []member) []member {
	br.mu.Lock()
	defer br.mu.Unlock()
	dst = append(dst, br.nodes...)
	br.rng.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
	return dst
}

// ReconstructOptions tunes the broker-side recovery, a CHS decode in the
// DCT basis with a support cap of len(locs)/3 that stops early once the
// sensor residual is down to the gathered readings' noise (cs.NoiseTol of
// GatherResult.Sigmas). The cap is not the only one: the decode runs
// CHS's default 32 iterations of one atom each, so a cold decode admits
// at most 32 atoms (a warm one, 32 beyond its seed). ROADMAP.md item 2
// (one support-size rule) removes that second cap.
type ReconstructOptions struct {
	UseGLS bool // weight by per-sensor noise (heterogeneous phones)

	// SeedSupport warm-starts the CHS decode from a previous round's
	// recovered support (Reconstruction.Result.Support): on a
	// slowly-varying field the solver skips the greedy search and pays
	// one residual check plus the final solve. Invalid or rank-deficient
	// seeds fall back to a cold decode, so a stale seed can never corrupt
	// a reconstruction.
	SeedSupport []int
	// SeedRelTol rejects the seed when the post-seed residual exceeds
	// SeedRelTol·‖y‖ — the guard against warm-starting across a field
	// that changed too much. 0 keeps any independent seed.
	SeedRelTol float64
}

// Reconstruction is a completed regional field estimate.
type Reconstruction struct {
	Field  *field.Field
	Result *cs.Result
	Gather *GatherResult
}

// ReconstructFrom recovers the field from an existing gather round,
// matrix-free in the DCT basis (basis.Operator fast path).
func (br *Broker) ReconstructFrom(g *GatherResult, opts ReconstructOptions) (*Reconstruction, error) {
	gw, gh := br.env.GridDims()
	op, err := basis.CachedOperator2D(basis.KindDCT, gh, gw)
	if err != nil {
		return nil, err
	}
	k := len(g.Locs) / 3
	if k < 1 {
		k = 1
	}
	chsOpts := cs.CHSOptions{
		MaxSupport: k, Tol: cs.NoiseTol(g.Sigmas), PerIter: 1,
		SeedSupport: opts.SeedSupport, SeedRelTol: opts.SeedRelTol,
	}
	if opts.UseGLS {
		chsOpts.Sigmas = g.Sigmas
	}
	sp := obs.StartSpan("broker.reconstruct")
	res, err := cs.CHSOp(op, g.Locs, g.Values, chsOpts)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	obsReconRounds.Inc()
	obsReconIters.Observe(float64(res.Iterations))
	obsReconSupport.Observe(float64(len(res.Support)))
	obsReconResidual.Set(res.Residual)
	f, err := field.FromVector(gw, gh, res.Xhat)
	if err != nil {
		return nil, err
	}
	return &Reconstruction{Field: f, Result: res, Gather: g}, nil
}
