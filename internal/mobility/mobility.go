// Package mobility provides the node mobility models that stand in for
// real human movement: random waypoint (the classic MANET model) and
// Gauss–Markov (temporally correlated velocity). Node positions drive
// which field grid point each mobile sensor can measure, so coverage and
// collaboration results depend on them; the models are deterministic under
// a seed for reproducible experiments.
package mobility

import (
	"errors"
	"math"
	"math/rand"
)

// Point is a position in continuous field coordinates: X along columns
// (0..W), Y along rows (0..H).
type Point struct {
	X, Y float64
}

// Model advances a node position through simulated time.
type Model interface {
	// Step advances the model by dt seconds and returns the new position.
	Step(dt float64) Point
	// Pos returns the current position without advancing.
	Pos() Point
}

// --- Random waypoint -----------------------------------------------------------

// RandomWaypoint implements the random-waypoint model: pick a uniform
// destination, travel at a uniform-random speed, pause, repeat. It is a
// one-node WaypointState stepped by StepWaypoint, the kernel the fleet
// runs over whole shards.
type RandomWaypoint struct {
	p   WaypointParams
	rng *rand.Rand
	s   *WaypointState
}

// NewRandomWaypoint creates a model confined to a w×h area.
func NewRandomWaypoint(rng *rand.Rand, w, h, minSpeed, maxSpeed, pause float64) (*RandomWaypoint, error) {
	p := WaypointParams{W: w, H: h, MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause}
	s, err := InitWaypoints(rng, p, 1)
	if err != nil {
		return nil, err
	}
	return &RandomWaypoint{p: p, rng: rng, s: s}, nil
}

// Pos returns the current position.
func (m *RandomWaypoint) Pos() Point { return Point{X: m.s.X[0], Y: m.s.Y[0]} }

// Step advances by dt seconds.
func (m *RandomWaypoint) Step(dt float64) Point {
	StepWaypoint(m.rng, m.p, m.s, 0, dt)
	return m.Pos()
}

// --- Gauss–Markov ---------------------------------------------------------------

// GaussMarkov implements the Gauss–Markov mobility model: speed and
// direction evolve as AR(1) processes around their means, giving smoother,
// temporally correlated trajectories than random waypoint. alpha∈[0,1]
// controls memory (1 = straight line, 0 = Brownian).
type GaussMarkov struct {
	w, h      float64
	alpha     float64
	meanSpeed float64
	sigma     float64
	rng       *rand.Rand

	pos       Point
	speed     float64
	direction float64
}

// NewGaussMarkov creates a model confined to a w×h area.
func NewGaussMarkov(rng *rand.Rand, w, h, alpha, meanSpeed, sigma float64) (*GaussMarkov, error) {
	if w <= 0 || h <= 0 {
		return nil, errors.New("mobility: area must be positive")
	}
	if alpha < 0 || alpha > 1 {
		return nil, errors.New("mobility: alpha must be in [0,1]")
	}
	if meanSpeed <= 0 {
		return nil, errors.New("mobility: meanSpeed must be positive")
	}
	return &GaussMarkov{
		w: w, h: h, alpha: alpha, meanSpeed: meanSpeed, sigma: sigma, rng: rng,
		pos:       Point{X: rng.Float64() * w, Y: rng.Float64() * h},
		speed:     meanSpeed,
		direction: rng.Float64() * 2 * math.Pi,
	}, nil
}

// Pos returns the current position.
func (m *GaussMarkov) Pos() Point { return m.pos }

// Step advances by dt seconds.
func (m *GaussMarkov) Step(dt float64) Point {
	a := m.alpha
	root := math.Sqrt(1 - a*a)
	m.speed = a*m.speed + (1-a)*m.meanSpeed + root*m.sigma*m.rng.NormFloat64()
	if m.speed < 0 {
		m.speed = 0
	}
	meanDir := m.direction
	m.direction = a*m.direction + (1-a)*meanDir + root*0.5*m.rng.NormFloat64()
	m.pos.X += m.speed * math.Cos(m.direction) * dt
	m.pos.Y += m.speed * math.Sin(m.direction) * dt
	// Reflect at the boundary so nodes stay in the area.
	if m.pos.X < 0 {
		m.pos.X = -m.pos.X
		m.direction = math.Pi - m.direction
	}
	if m.pos.X > m.w {
		m.pos.X = 2*m.w - m.pos.X
		m.direction = math.Pi - m.direction
	}
	if m.pos.Y < 0 {
		m.pos.Y = -m.pos.Y
		m.direction = -m.direction
	}
	if m.pos.Y > m.h {
		m.pos.Y = 2*m.h - m.pos.Y
		m.direction = -m.direction
	}
	return m.pos
}

// --- Helpers ---------------------------------------------------------------------

// Static is a degenerate model for fixed infrastructure sensors.
type Static struct{ P Point }

// Pos returns the fixed position.
func (s Static) Pos() Point { return s.P }

// Step returns the fixed position.
func (s Static) Step(dt float64) Point { return s.P }

// GridIndex maps a continuous position in a w×h area to the column-stacked
// grid index of a gridW×gridH field (the grid point the node's local
// measurement represents). Positions on the boundary clamp inward.
func GridIndex(p Point, w, h float64, gridW, gridH int) int {
	col := int(p.X / w * float64(gridW))
	row := int(p.Y / h * float64(gridH))
	if col >= gridW {
		col = gridW - 1
	}
	if col < 0 {
		col = 0
	}
	if row >= gridH {
		row = gridH - 1
	}
	if row < 0 {
		row = 0
	}
	return col*gridH + row
}
