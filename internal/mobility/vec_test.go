package mobility

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandomWaypointIsOneNodeStepWaypoints pins that RandomWaypoint is
// the shard kernel on a one-node state: driven by the same seed, its
// positions equal (==) those StepWaypoints gives node 0, so the node
// backend and the fleet move a node alike. Both run one kernel, so the
// equality cannot catch a wrong kernel; beside it the test checks what
// holds for any correct random-waypoint model, on the one-node state and
// on a 16-node one, over irregular dt values that cross pauses and
// arrivals: every position stays inside W×H, a step moves a node at most
// MaxSpeed·dt, and a node paused for the whole step does not move.
func TestRandomWaypointIsOneNodeStepWaypoints(t *testing.T) {
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
		crowd, err := InitWaypoints(rand.New(rand.NewSource(seed)), p, 16)
		if err != nil {
			t.Fatal(err)
		}
		crowdRng := rand.New(rand.NewSource(seed + 100))
		if vec.X[0] != scalar.Pos().X || vec.Y[0] != scalar.Pos().Y {
			t.Fatalf("seed %d: initial positions diverge", seed)
		}
		dts := []float64{0.3, 1, 2.5, 0.1, 7, 0.9}
		for step := 0; step < 200; step++ {
			dt := dts[step%len(dts)]
			got := scalar.Step(dt)
			checkWaypointStep(t, p, vec, dt, func() { StepWaypoints(vRng, p, vec, dt) })
			if vec.X[0] != got.X || vec.Y[0] != got.Y {
				t.Fatalf("seed %d step %d: vec (%v,%v) != scalar (%v,%v)",
					seed, step, vec.X[0], vec.Y[0], got.X, got.Y)
			}
			checkWaypointStep(t, p, crowd, dt, func() { StepWaypoints(crowdRng, p, crowd, dt) })
		}
	}
}

// checkWaypointStep runs step, which advances every node of s by dt, and
// fails the test if a node leaves the area, moves farther than MaxSpeed·dt
// or moves at all while its pause outlasts the step.
func checkWaypointStep(t *testing.T, p WaypointParams, s *WaypointState, dt float64, step func()) {
	t.Helper()
	x0, y0 := append([]float64(nil), s.X...), append([]float64(nil), s.Y...)
	paused := make([]bool, s.Len())
	for i := range paused {
		paused[i] = s.PauseLeft[i] >= dt
	}
	step()
	for i := range x0 {
		moved := math.Hypot(s.X[i]-x0[i], s.Y[i]-y0[i])
		switch {
		case s.X[i] < 0 || s.X[i] > p.W || s.Y[i] < 0 || s.Y[i] > p.H:
			t.Fatalf("node %d left the %v×%v area: (%v, %v)", i, p.W, p.H, s.X[i], s.Y[i])
		case moved > p.MaxSpeed*dt*(1+1e-12):
			t.Fatalf("node %d moved %v in %v s, faster than %v/s", i, moved, dt, p.MaxSpeed)
		case paused[i] && moved != 0:
			t.Fatalf("node %d moved %v during a pause longer than the %v s step", i, moved, dt)
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
// allocs/op must be zero (TestStepWaypointAllocatesNothing pins it).
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

// TestStepWaypointAllocatesNothing pins at run time the zero-allocation
// contract of StepWaypoint and StepWaypoints, hot entry points
// (lint.HotEntryPoints): steps long enough that nodes arrive, pause and
// draw new legs.
func TestStepWaypointAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := WaypointParams{W: 100, H: 100, MinSpeed: 1, MaxSpeed: 3, Pause: 2}
	s, err := InitWaypoints(rng, p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < s.Len(); i++ {
			StepWaypoint(rng, p, s, i, 20)
		}
	}); allocs != 0 {
		t.Fatalf("StepWaypoint: %.1f allocs per sweep of 64 nodes, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { StepWaypoints(rng, p, s, 20) }); allocs != 0 {
		t.Fatalf("StepWaypoints: %.1f allocs per tick of 64 nodes, want 0", allocs)
	}
}
