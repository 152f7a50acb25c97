package broker

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/sensor"
	"repro/internal/testutil"
)

// TestRosterChurnRecycledIDs drives the broker's register/unregister
// path the way the fleet layer does: node IDs leave and rejoin across
// generations. Register must refuse a live duplicate, Unregister must
// make the ID reusable, and after heavy churn the roster must hold
// exactly the final generation — with its nodes still reachable.
func TestRosterChurnRecycledIDs(t *testing.T) {
	testutil.CheckGoroutines(t)
	truth := fieldEnvForChurn()
	b := bus.New()
	defer b.Close()
	br, err := New(Config{ID: "nc0", Seed: 7, Timeout: 2 * time.Second}, b, truth)
	if err != nil {
		t.Fatal(err)
	}

	if br.Unregister("ghost") {
		t.Fatal("unregistering an unknown ID reported success")
	}

	const cohort = 100
	const generations = 30
	for g := 0; g < generations; g++ {
		nodes := make([]*node.Node, cohort)
		for i := range nodes {
			id := fmt.Sprintf("n%d", i)
			nd, err := node.New(node.Config{ID: id, Seed: int64(g*cohort + i)},
				truth, mobility.Static{P: mobility.Point{X: 40, Y: 40}})
			if err != nil {
				t.Fatal(err)
			}
			if err := nd.AttachBus(b, "nc0"); err != nil {
				t.Fatal(err)
			}
			if err := br.Register(id); err != nil {
				t.Fatalf("generation %d: recycled ID %q rejected: %v", g, id, err)
			}
			if err := br.Register(id); err == nil {
				t.Fatalf("generation %d: live duplicate %q accepted", g, id)
			}
			nodes[i] = nd
		}
		if got := len(br.Nodes()); got != cohort {
			t.Fatalf("generation %d: roster %d, want %d", g, got, cohort)
		}
		if g == generations-1 {
			// Final generation: the roster must still drive real traffic.
			res, err := br.GatherContext(context.Background(), sensor.Temperature, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Values) == 0 || res.NodesUsed == 0 {
				t.Fatalf("gather after churn produced nothing: %+v", res)
			}
		}
		for i, nd := range nodes {
			nd.Detach()
			if !br.Unregister(nd.ID) {
				t.Fatalf("generation %d: node %d missing from roster", g, i)
			}
		}
		if got := len(br.Nodes()); got != 0 {
			t.Fatalf("generation %d: roster not empty after churn: %d", g, got)
		}
	}
}

// fieldEnvForChurn builds a small plume environment without pulling in
// the full testNC fixture (which registers its own cleanup).
func fieldEnvForChurn() node.Environment {
	return fieldEnv{f: field.GenPlumes(8, 8, 10, []field.Plume{
		{Row: 4, Col: 4, Sigma: 2, Amplitude: 25},
	})}
}
