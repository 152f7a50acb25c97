package experiments

// Golden determinism tests for the parallel fan-out: every parallelized
// table and the campaign pipeline must be byte-identical between a serial
// (GOMAXPROCS=1) run and a fully parallel one. The fan-out contract —
// per-trial seeded RNGs, per-index result slots, reductions in index order
// after the pool drains — makes the schedule unobservable; these tests pin
// that contract.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

// atGOMAXPROCS runs fn with GOMAXPROCS pinned to n, restoring the previous
// value afterwards.
func atGOMAXPROCS(n int, fn func() (*Table, error)) (*Table, error) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

func assertTableStable(t *testing.T, name string, run func() (*Table, error)) {
	t.Helper()
	serial, err := atGOMAXPROCS(1, run)
	if err != nil {
		t.Fatalf("%s serial: %v", name, err)
	}
	parallel, err := atGOMAXPROCS(4, run)
	if err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("%s table differs between GOMAXPROCS=1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			name, serial.String(), parallel.String())
	}
}

func TestFig4DeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Fig4Config{N: 128, Ms: []int{20, 30}, K: 6, Trials: 6, Seed: 4}
	assertTableStable(t, "Fig4", func() (*Table, error) { return Fig4(cfg) })
}

func TestC2DeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := C2Config{Ns: []int{64, 128}, Ks: []int{4}, Trials: 5, Seed: 12}
	assertTableStable(t, "C2", func() (*Table, error) { return C2(cfg) })
}

func TestA2DeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := A2Config{N: 96, M: 30, Ks: []int{4, 8, 16}, Noise: 0.05, Trials: 9, Seed: 22}
	assertTableStable(t, "A2", func() (*Table, error) { return A2(cfg) })
}

func TestA4DeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := A4Config{N: 64, M: 28, K: 4, Noise: 0.02, Trials: 6, Seed: 24}
	assertTableStable(t, "A4", func() (*Table, error) { return A4(cfg) })
}

// TestCampaignDeterministicAcrossGOMAXPROCS exercises the zone fan-out in
// PublicCloud.AssembleContext: two identically seeded middleware stacks must
// produce the exact same reconstruction whether zones run serially or
// concurrently.
func TestCampaignDeterministicAcrossGOMAXPROCS(t *testing.T) {
	runOnce := func() (*core.CampaignResult, error) {
		sd, err := core.New(core.Options{
			FieldW: 24, FieldH: 24, ZoneRows: 2, ZoneCols: 2,
			NCsPerZone: 1, NodesPerNC: 4, Seed: 99,
		})
		if err != nil {
			return nil, err
		}
		defer sd.Close()
		rng := rand.New(rand.NewSource(7))
		truth := field.GenPlumes(24, 24, 10, []field.Plume{
			{Row: 6, Col: 6, Sigma: 2.5, Amplitude: 20},
			{Row: 16, Col: 18, Sigma: 3, Amplitude: 25},
		})
		truth.AddNoise(rng, 0.02)
		if err := sd.SetTruth(truth); err != nil {
			return nil, err
		}
		return sd.RunCampaign(core.CampaignConfig{TotalM: 96})
	}

	prev := runtime.GOMAXPROCS(1)
	serial, errS := runOnce()
	runtime.GOMAXPROCS(4)
	parallel, errP := runOnce()
	runtime.GOMAXPROCS(prev)
	if errS != nil {
		t.Fatalf("serial campaign: %v", errS)
	}
	if errP != nil {
		t.Fatalf("parallel campaign: %v", errP)
	}
	if len(serial.Reconstructed.Data) != len(parallel.Reconstructed.Data) {
		t.Fatalf("field sizes differ: %d vs %d", len(serial.Reconstructed.Data), len(parallel.Reconstructed.Data))
	}
	for i, v := range serial.Reconstructed.Data {
		if parallel.Reconstructed.Data[i] != v {
			t.Fatalf("reconstructed field differs at cell %d: serial %g, parallel %g",
				i, v, parallel.Reconstructed.Data[i])
		}
	}
	if serial.GlobalNMSE != parallel.GlobalNMSE {
		t.Fatalf("GlobalNMSE differs: serial %g, parallel %g", serial.GlobalNMSE, parallel.GlobalNMSE)
	}
	for z, v := range serial.ZoneNMSE {
		if parallel.ZoneNMSE[z] != v {
			t.Fatalf("zone %d NMSE differs: serial %g, parallel %g", z, v, parallel.ZoneNMSE[z])
		}
	}
	for z, m := range serial.Plan {
		if parallel.Plan[z] != m {
			t.Fatalf("zone %d budget differs: serial %d, parallel %d", z, m, parallel.Plan[z])
		}
	}
}
