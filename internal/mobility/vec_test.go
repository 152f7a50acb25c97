package mobility

import (
	"math"
	"math/rand"
	"testing"
)

// TestStepWaypointsMatchesScalarModel is the backend-equivalence
// contract: a one-node WaypointState driven by the same seed is
// float-identical (==, not approximately) to RandomWaypoint at every
// step, including irregular dt values that cross pauses and arrivals.
func TestStepWaypointsMatchesScalarModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sRng := rand.New(rand.NewSource(seed))
		vRng := rand.New(rand.NewSource(seed))
		p := WaypointParams{W: 40, H: 25, MinSpeed: 0.5, MaxSpeed: 3, Pause: 1.5}

		scalar, err := NewRandomWaypoint(sRng, p.W, p.H, p.MinSpeed, p.MaxSpeed, p.Pause)
		if err != nil {
			t.Fatal(err)
		}
		vec, err := InitWaypoints(vRng, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if vec.X[0] != scalar.Pos().X || vec.Y[0] != scalar.Pos().Y {
			t.Fatalf("seed %d: initial positions diverge", seed)
		}
		dts := []float64{0.3, 1, 2.5, 0.1, 7, 0.9}
		for step := 0; step < 200; step++ {
			dt := dts[step%len(dts)]
			got := scalar.Step(dt)
			StepWaypoints(vRng, p, vec, dt)
			if vec.X[0] != got.X || vec.Y[0] != got.Y {
				t.Fatalf("seed %d step %d: vec (%v,%v) != scalar (%v,%v)",
					seed, step, vec.X[0], vec.Y[0], got.X, got.Y)
			}
		}
	}
}

// TestStepWaypointOnceMatchesUnitSteps is the property the fleet's lazy
// mobility rests on: moving a node once by k s consumes the same RNG
// draws as moving it k times by 1 s — so it draws the same waypoints and
// speeds — and ends at the same position and pause up to rounding. The
// area is small and the pause fractional, so most cases cross arrivals
// and pauses that straddle the 1 s boundaries; each case starts from a
// different warm-up, mid-leg or mid-pause.
func TestStepWaypointOnceMatchesUnitSteps(t *testing.T) {
	p := WaypointParams{W: 6, H: 4, MinSpeed: 0.5, MaxSpeed: 3, Pause: 0.7}
	const seeds = 2000
	cases, arrived, paused := 0, 0, 0
	for k := 1; k <= 8; k++ {
		for seed := int64(0); seed < seeds; seed++ {
			unitRng := rand.New(rand.NewSource(seed))
			onceRng := rand.New(rand.NewSource(seed))
			unit, err := InitWaypoints(unitRng, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			once, err := InitWaypoints(onceRng, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			warm := float64(seed%17) * 0.23
			StepWaypoint(unitRng, p, unit, 0, warm)
			StepWaypoint(onceRng, p, once, 0, warm)
			if unit.PauseLeft[0] > 0 {
				paused++
			}
			speed := unit.Speed[0]

			for j := 0; j < k; j++ {
				StepWaypoint(unitRng, p, unit, 0, 1)
			}
			StepWaypoint(onceRng, p, once, 0, float64(k))
			cases++
			if unit.Speed[0] != speed {
				arrived++
			}
			if u, o := unitRng.Int63(), onceRng.Int63(); u != o {
				t.Fatalf("k=%d seed %d: the streams diverge (next draws %d and %d)", k, seed, u, o)
			}
			if unit.DstX[0] != once.DstX[0] || unit.DstY[0] != once.DstY[0] || unit.Speed[0] != once.Speed[0] {
				t.Fatalf("k=%d seed %d: legs differ", k, seed)
			}
			if d := math.Hypot(unit.X[0]-once.X[0], unit.Y[0]-once.Y[0]); d > 1e-9 {
				t.Fatalf("k=%d seed %d: positions %v m apart", k, seed, d)
			}
			if d := math.Abs(unit.PauseLeft[0] - once.PauseLeft[0]); d > 1e-9 {
				t.Fatalf("k=%d seed %d: pauses differ by %v s", k, seed, d)
			}
		}
	}
	if arrived < cases/2 || paused < cases/10 {
		t.Fatalf("of %d cases %d crossed an arrival and %d started paused: the property is not exercised", cases, arrived, paused)
	}
}

// TestStepWaypointsNodeIndependence: in a multi-node state each node's
// trajectory depends only on its own draws' position in the stream, and
// all nodes stay inside the area across long runs.
func TestStepWaypointsConfinedToArea(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := WaypointParams{W: 12, H: 8, MinSpeed: 1, MaxSpeed: 4, Pause: 0.5}
	s, err := InitWaypoints(rng, p, 64)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 500; step++ {
		StepWaypoints(rng, p, s, 0.7)
		for i := range s.X {
			if s.X[i] < 0 || s.X[i] > p.W || s.Y[i] < 0 || s.Y[i] > p.H {
				t.Fatalf("step %d node %d escaped: (%v,%v)", step, i, s.X[i], s.Y[i])
			}
		}
	}
}

// TestInitWaypointsValidation mirrors the scalar constructor's checks.
func TestInitWaypointsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []WaypointParams{
		{W: 0, H: 1, MinSpeed: 1, MaxSpeed: 2},
		{W: 1, H: 1, MinSpeed: 0, MaxSpeed: 2},
		{W: 1, H: 1, MinSpeed: 3, MaxSpeed: 2},
	}
	for i, p := range bad {
		if _, err := InitWaypoints(rng, p, 4); err == nil {
			t.Fatalf("params %d accepted: %+v", i, p)
		}
	}
	if _, err := InitWaypoints(rng, WaypointParams{W: 1, H: 1, MinSpeed: 1, MaxSpeed: 2}, -1); err == nil {
		t.Fatal("negative node count accepted")
	}
}

// BenchmarkStepWaypoints4096 measures one shard-sized vectorized tick;
// allocs/op must be zero (the hotalloc contract).
func BenchmarkStepWaypoints4096(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := WaypointParams{W: 640, H: 640, MinSpeed: 0.8, MaxSpeed: 2.2, Pause: 2}
	s, err := InitWaypoints(rng, p, 4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepWaypoints(rng, p, s, 1)
	}
}
