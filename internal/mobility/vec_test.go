package mobility

import (
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
