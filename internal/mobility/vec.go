// Vectorized mobility: the random-waypoint process of RandomWaypoint,
// stepped over struct-of-arrays state for a whole fleet shard. A million
// simulated participants cannot afford one heap object and one interface
// dispatch each per tick; WaypointState keeps each component of every
// node's state in a flat slice. StepWaypoint is the one kernel: it moves
// one node, and StepWaypoints loops it over all of them. The fleet calls
// StepWaypoint itself, on only the nodes about to report, each by the
// time since it last moved. The process is the scalar model's exactly —
// same RNG consumption order, same arithmetic expression order — so a
// one-node WaypointState driven by the same seed produces float-identical
// trajectories to RandomWaypoint (pinned by the vec tests), and the fleet
// backend inherits the scalar model's validation.

package mobility

import (
	"errors"
	"math"
	"math/rand"
)

// WaypointParams is the per-shard configuration of the vectorized
// random-waypoint model: movement area, speed range, and pause time,
// shared by every node in the shard.
type WaypointParams struct {
	W, H               float64 // area extent (field coordinates)
	MinSpeed, MaxSpeed float64 // uniform speed range, units/s
	Pause              float64 // dwell time at each waypoint, s
}

func (p WaypointParams) check() error {
	if p.W <= 0 || p.H <= 0 {
		return errors.New("mobility: area must be positive")
	}
	if p.MinSpeed <= 0 || p.MaxSpeed < p.MinSpeed {
		return errors.New("mobility: need 0 < MinSpeed <= MaxSpeed")
	}
	return nil
}

// WaypointState is the struct-of-arrays position state of n nodes under
// the random-waypoint process. All slices have the same length; index i
// across them is one node. The state is owned by exactly one shard and
// advanced single-threaded by that shard's scheduler turn — nothing here
// is safe for concurrent mutation.
type WaypointState struct {
	X, Y       []float64 // current position
	DstX, DstY []float64 // current waypoint
	Speed      []float64 // current leg's speed
	PauseLeft  []float64 // remaining dwell at the last waypoint
}

// Len returns the node count.
func (s *WaypointState) Len() int { return len(s.X) }

// InitWaypoints seeds n nodes' waypoint state from rng. Per node it
// draws, in order: position X, position Y, destination X, destination Y,
// speed — the exact order NewRandomWaypoint consumes its RNG — so a
// one-node state is stream-identical to the scalar model under the same
// seed.
func InitWaypoints(rng *rand.Rand, p WaypointParams, n int) (*WaypointState, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, errors.New("mobility: negative node count")
	}
	s := &WaypointState{
		X: make([]float64, n), Y: make([]float64, n),
		DstX: make([]float64, n), DstY: make([]float64, n),
		Speed:     make([]float64, n),
		PauseLeft: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s.X[i] = rng.Float64() * p.W
		s.Y[i] = rng.Float64() * p.H
		s.DstX[i] = rng.Float64() * p.W
		s.DstY[i] = rng.Float64() * p.H
		s.Speed[i] = p.MinSpeed + rng.Float64()*(p.MaxSpeed-p.MinSpeed)
	}
	return s, nil
}

// StepWaypoints advances every node by dt seconds, in index order, through
// StepWaypoint. Node i's per-arrival draws happen in index order, so the
// consumed RNG stream is a deterministic function of (seed, trajectory)
// regardless of how many shards step concurrently — each shard owns its
// own rng. Allocation-free.
func StepWaypoints(rng *rand.Rand, p WaypointParams, s *WaypointState, dt float64) {
	for i := range s.X {
		StepWaypoint(rng, p, s, i, dt)
	}
}

// StepWaypoint advances node i alone by dt seconds: consume pause time,
// travel toward the waypoint, and on arrival pause and draw the next
// destination and speed from rng. The arithmetic matches
// (*RandomWaypoint).Step term for term, keeping the two backends
// float-identical. Stepping a node once by k s consumes the same draws as
// stepping it k times by 1 s (each arrival draws once, whatever the dt
// it falls in) and ends at the same position up to rounding, which is
// what lets the fleet move a node only when it reports. Allocation-free:
// this is the fleet's per-node mobility kernel.
func StepWaypoint(rng *rand.Rand, p WaypointParams, s *WaypointState, i int, dt float64) {
	t := dt
	for t > 0 {
		if s.PauseLeft[i] > 0 {
			if s.PauseLeft[i] >= t {
				s.PauseLeft[i] -= t
				return
			}
			t -= s.PauseLeft[i]
			s.PauseLeft[i] = 0
		}
		dx, dy := s.DstX[i]-s.X[i], s.DstY[i]-s.Y[i]
		dist := math.Hypot(dx, dy)
		travel := s.Speed[i] * t
		if travel >= dist {
			// Arrive, spend remaining time pausing then pick a new target.
			s.X[i], s.Y[i] = s.DstX[i], s.DstY[i]
			if s.Speed[i] > 0 {
				t -= dist / s.Speed[i]
			} else {
				t = 0
			}
			s.PauseLeft[i] = p.Pause
			s.DstX[i] = rng.Float64() * p.W
			s.DstY[i] = rng.Float64() * p.H
			s.Speed[i] = p.MinSpeed + rng.Float64()*(p.MaxSpeed-p.MinSpeed)
			continue
		}
		s.X[i] += dx / dist * travel
		s.Y[i] += dy / dist * travel
		return
	}
}
