package cloud

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/bus"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/sensor"
)

func TestZoneEnvMapping(t *testing.T) {
	global := field.New(8, 8)
	for k := range global.Data {
		global.Data[k] = float64(k)
	}
	zones, _ := field.Partition(global, 2, 2)
	// Zone 3 is the bottom-right 4×4 block (Row0=4, Col0=4).
	env, err := NewZoneEnv(global, zones[3], 10)
	if err != nil {
		t.Fatal(err)
	}
	w, h := env.GridDims()
	if w != 4 || h != 4 {
		t.Fatalf("zone dims %dx%d", w, h)
	}
	aw, ah := env.AreaDims()
	if aw != 40 || ah != 40 {
		t.Fatalf("area dims %vx%v", aw, ah)
	}
	// Zone-local (0,0) is global (4,4).
	if got := env.FieldValue(sensor.Temperature, 0); got != global.At(4, 4) {
		t.Fatalf("zone-local origin %v, want %v", got, global.At(4, 4))
	}
	// Zone-local (r=1,c=2) → local idx 2*4+1=9 → global (5,6).
	if got := env.FieldValue(sensor.Temperature, 9); got != global.At(5, 6) {
		t.Fatalf("zone-local (1,2) = %v, want %v", got, global.At(5, 6))
	}
}

func TestZoneEnvValidation(t *testing.T) {
	if _, err := NewZoneEnv(nil, field.Zone{}, 10); err == nil {
		t.Fatal("want nil-field error")
	}
	f := field.New(4, 4)
	if _, err := NewZoneEnv(f, field.Zone{Row0: 2, Col0: 2, W: 4, H: 4}, 10); err == nil {
		t.Fatal("want bounds error")
	}
}

func TestZoneEnvSetGlobalAndCriticality(t *testing.T) {
	f1 := field.New(4, 4)
	f2 := field.New(4, 4)
	f2.Data[0] = 99
	env, _ := NewZoneEnv(f1, field.Zone{W: 4, H: 4, Criticality: 1}, 10)
	env.SetGlobal(f2)
	if env.FieldValue(sensor.Temperature, 0) != 99 {
		t.Fatal("SetGlobal did not take")
	}
	env.SetCriticality(5)
	if env.Zone().Criticality != 5 {
		t.Fatal("SetCriticality did not take")
	}
}

// buildHierarchy wires a full two-zone deployment over the given truth.
func buildHierarchy(t *testing.T, truth *field.Field, nodesPerNC int, seed int64) *PublicCloud {
	t.Helper()
	zones, err := field.Partition(truth, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var lcs []*LocalCloud
	for _, z := range zones {
		env, err := NewZoneEnv(truth, z, 10)
		if err != nil {
			t.Fatal(err)
		}
		b := bus.New()
		brID := fmt.Sprintf("nc%d", z.ID)
		br, err := broker.New(broker.Config{ID: brID, Seed: rng.Int63(), Timeout: 2 * time.Second}, b, env)
		if err != nil {
			t.Fatal(err)
		}
		aw, ah := env.AreaDims()
		for i := 0; i < nodesPerNC; i++ {
			mob, err := mobility.NewRandomWaypoint(rand.New(rand.NewSource(rng.Int63())), aw, ah, 1, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			nd, err := node.New(node.Config{
				ID: fmt.Sprintf("%s/n%d", brID, i), Seed: rng.Int63(),
			}, env, mob)
			if err != nil {
				t.Fatal(err)
			}
			if err := nd.AttachBus(b, brID); err != nil {
				t.Fatal(err)
			}
			if err := br.Register(nd.ID); err != nil {
				t.Fatal(err)
			}
			nodeRef := nd
			t.Cleanup(nodeRef.Detach)
		}
		busRef := b
		t.Cleanup(busRef.Close)
		lc, err := NewLocalCloud(env, br)
		if err != nil {
			t.Fatal(err)
		}
		lcs = append(lcs, lc)
	}
	pc, err := NewPublicCloud(truth.W, truth.H, lcs)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func TestLocalCloudGatherMergesBrokers(t *testing.T) {
	truth := field.GenSmoothGradient(8, 8, 20, 5, 2)
	env, _ := NewZoneEnv(truth, field.Zone{W: 8, H: 8, Criticality: 1}, 10)
	b1, b2 := bus.New(), bus.New()
	defer b1.Close()
	defer b2.Close()
	br1, _ := broker.New(broker.Config{ID: "a", Seed: 1}, b1, env)
	br2, _ := broker.New(broker.Config{ID: "b", Seed: 2}, b2, env)
	lc, err := NewLocalCloud(env, br1, br2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lc.GatherContext(context.Background(), sensor.Temperature, 21)
	if err != nil {
		t.Fatal(err)
	}
	// All-infra gather (no nodes): budget split 11/10 but duplicates are
	// possible across brokers, so expect close to 21 distinct cells.
	if len(g.Locs) < 15 || len(g.Locs) > 21 {
		t.Fatalf("merged gather %d cells", len(g.Locs))
	}
	seen := map[int]bool{}
	for _, l := range g.Locs {
		if seen[l] {
			t.Fatal("merged gather contains duplicates")
		}
		seen[l] = true
	}
	if _, err := lc.GatherContext(context.Background(), sensor.Temperature, 0); err == nil {
		t.Fatal("want budget error")
	}
}

// TestLocalCloudGatherOverlappingCoverageStaysOnBudget is the
// regression test for the under-budget merge bug: with two brokers
// covering the same zone, cross-broker duplicate cells used to be
// dropped without replacement, so the merged round came in under m
// whenever the brokers' random coverage overlapped — contradicting the
// "keeps the total on budget" contract. The exclusion-based merge now
// hands each broker the cells already covered, so the round is exact.
func TestLocalCloudGatherOverlappingCoverageStaysOnBudget(t *testing.T) {
	truth := field.GenSmoothGradient(8, 8, 20, 5, 2)
	env, _ := NewZoneEnv(truth, field.Zone{W: 8, H: 8, Criticality: 1}, 10)
	b1, b2 := bus.New(), bus.New()
	defer b1.Close()
	defer b2.Close()
	br1, _ := broker.New(broker.Config{ID: "a", Seed: 7}, b1, env)
	br2, _ := broker.New(broker.Config{ID: "b", Seed: 8}, b2, env)
	lc, err := NewLocalCloud(env, br1, br2)
	if err != nil {
		t.Fatal(err)
	}
	// All-infra gather over 64 cells, 20 per broker: the two independent
	// random samples overlap with near-certainty, which is exactly the
	// case the old merge lost measurements on.
	g, err := lc.GatherContext(context.Background(), sensor.Temperature, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Locs) != 40 {
		t.Fatalf("merged gather %d cells, want the full budget of 40", len(g.Locs))
	}
	if g.Shortfall != 0 || g.BrokersFailed != 0 {
		t.Fatalf("healthy round reported degradation: %+v", g)
	}
	seen := map[int]bool{}
	for _, l := range g.Locs {
		if seen[l] {
			t.Fatal("merged gather contains duplicates")
		}
		seen[l] = true
	}
}

// TestLocalCloudGatherDegradesOnBrokerFailure pins the degradation
// contract: a broker that fails outright (here: regional infra outage
// with zero reachable nodes) no longer aborts the zone; its share is
// redistributed to the survivor and the loss is reported.
func TestLocalCloudGatherDegradesOnBrokerFailure(t *testing.T) {
	truth := field.GenSmoothGradient(8, 8, 20, 5, 2)
	env, _ := NewZoneEnv(truth, field.Zone{W: 8, H: 8, Criticality: 1}, 10)
	b1, b2 := bus.New(), bus.New()
	defer b1.Close()
	defer b2.Close()
	br1, _ := broker.New(broker.Config{ID: "a", Seed: 9}, b1, env)
	br2, _ := broker.New(broker.Config{ID: "b", Seed: 10}, b2, env)
	br2.SetInfraEnabled(false) // no nodes either: br2's round has nothing to give
	lc, err := NewLocalCloud(env, br1, br2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lc.GatherContext(context.Background(), sensor.Temperature, 20)
	if err != nil {
		t.Fatalf("zone gather must survive a failed broker: %v", err)
	}
	if g.BrokersFailed != 1 {
		t.Fatalf("BrokersFailed = %d, want 1", g.BrokersFailed)
	}
	if len(g.Locs) != 20 || g.Shortfall != 0 {
		t.Fatalf("survivor did not absorb the failed broker's share: %d cells, shortfall %d",
			len(g.Locs), g.Shortfall)
	}
	// With every broker down the zone still fails — degradation has a floor.
	br1.SetInfraEnabled(false)
	if _, err := lc.GatherContext(context.Background(), sensor.Temperature, 20); err == nil {
		t.Fatal("want error when no broker can gather anything")
	}
}

func TestNewLocalCloudValidation(t *testing.T) {
	if _, err := NewLocalCloud(nil); err == nil {
		t.Fatal("want env error")
	}
	env, _ := NewZoneEnv(field.New(4, 4), field.Zone{W: 4, H: 4}, 10)
	if _, err := NewLocalCloud(env); err == nil {
		t.Fatal("want brokers error")
	}
}

func TestNewPublicCloudValidation(t *testing.T) {
	if _, err := NewPublicCloud(8, 8, nil); err == nil {
		t.Fatal("want empty error")
	}
	truth := field.New(8, 8)
	env, _ := NewZoneEnv(truth, field.Zone{W: 4, H: 4}, 10)
	b := bus.New()
	defer b.Close()
	br, _ := broker.New(broker.Config{ID: "x", Seed: 1}, b, env)
	lc, _ := NewLocalCloud(env, br)
	if _, err := NewPublicCloud(8, 8, []*LocalCloud{lc}); err == nil {
		t.Fatal("want coverage error")
	}
}

func TestUniformBudget(t *testing.T) {
	truth := field.GenSmoothGradient(8, 8, 20, 5, 2)
	pc := buildHierarchy(t, truth, 0, 1)
	plan := pc.UniformBudget(21)
	total := 0
	for _, m := range plan {
		total += m
		if m < 10 || m > 11 {
			t.Fatalf("uneven split %v", plan)
		}
	}
	if total != 21 {
		t.Fatalf("plan total %d", total)
	}
}

func TestAdaptiveBudgetFavorsBusyZone(t *testing.T) {
	// Left zone flat, right zone has a plume: the right zone must receive
	// a larger share of the budget.
	truth := field.GenPlumes(16, 8, 10, []field.Plume{{Row: 4, Col: 12, Sigma: 1.5, Amplitude: 40}})
	pc := buildHierarchy(t, truth, 0, 2)
	plan, err := pc.AdaptiveBudget(40, truth, 0.98, 4)
	if err != nil {
		t.Fatal(err)
	}
	left, right := plan[0], plan[1]
	if right <= left {
		t.Fatalf("adaptive plan left=%d right=%d; busy zone should win", left, right)
	}
	total := 0
	for _, m := range plan {
		total += m
	}
	if total != 40 {
		t.Fatalf("plan total %d, want 40", total)
	}
}

func TestAdaptiveBudgetCriticalityWeighting(t *testing.T) {
	truth := field.GenSmoothGradient(16, 8, 20, 5, 2) // symmetric zones
	pc := buildHierarchy(t, truth, 0, 3)
	pc.LCs[0].Env.SetCriticality(4)
	plan, err := pc.AdaptiveBudget(40, truth, 0.98, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan[0] <= plan[1] {
		t.Fatalf("critical zone got %d <= %d", plan[0], plan[1])
	}
}

func TestAdaptiveBudgetValidation(t *testing.T) {
	truth := field.GenSmoothGradient(16, 8, 20, 5, 2)
	pc := buildHierarchy(t, truth, 0, 4)
	if _, err := pc.AdaptiveBudget(40, nil, 0.98, 4); err == nil {
		t.Fatal("want prior error")
	}
	if _, err := pc.AdaptiveBudget(40, field.New(4, 4), 0.98, 4); err == nil {
		t.Fatal("want shape error")
	}
}

// TestAdaptiveBudgetRejectsUnderfundedTotal is the regression test for
// the negative proportional term: with total below minPerZone·zones the
// old code computed float64(total - minPerZone*len(infos)) < 0 and
// produced per-zone budgets under the minimum instead of erroring.
func TestAdaptiveBudgetRejectsUnderfundedTotal(t *testing.T) {
	truth := field.GenSmoothGradient(16, 8, 20, 5, 2)
	pc := buildHierarchy(t, truth, 0, 7)
	if _, err := pc.AdaptiveBudget(5, truth, 0.98, 4); err == nil {
		t.Fatal("want error: 5 measurements cannot fund a 4-per-zone minimum across 2 zones")
	}
	// The boundary case — exactly the floors — is a valid plan.
	plan, err := pc.AdaptiveBudget(8, truth, 0.98, 4)
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range plan {
		if m < 4 {
			t.Fatalf("zone %d got %d, below the 4-measurement minimum", id, m)
		}
	}
}

func TestAssembleReconstructsGlobalField(t *testing.T) {
	truth := field.GenPlumes(16, 8, 15, []field.Plume{
		{Row: 3, Col: 4, Sigma: 2, Amplitude: 25},
		{Row: 5, Col: 12, Sigma: 2.5, Amplitude: 35},
	})
	pc := buildHierarchy(t, truth, 4, 5)
	plan := pc.UniformBudget(56)
	global, reports, err := pc.AssembleContext(context.Background(), sensor.Temperature, plan, broker.ReconstructOptions{K: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports %d", len(reports))
	}
	if nmse := cs.NMSE(truth.Data, global.Data); nmse > 0.02 {
		t.Fatalf("assembled NMSE %v", nmse)
	}
	for id, rep := range reports {
		if rep.Budget != plan[id] {
			t.Fatalf("zone %d budget mismatch", id)
		}
	}
}

func TestAssembleMissingBudget(t *testing.T) {
	truth := field.GenSmoothGradient(16, 8, 20, 5, 2)
	pc := buildHierarchy(t, truth, 0, 6)
	if _, _, err := pc.AssembleContext(context.Background(), sensor.Temperature, BudgetPlan{0: 10}, broker.ReconstructOptions{}, nil); err == nil {
		t.Fatal("want missing-budget error")
	}
}
