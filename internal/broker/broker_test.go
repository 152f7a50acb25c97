package broker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/bus"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/sensor"
	"repro/internal/testutil"
)

// fieldEnv exposes a whole field as a single-zone node.Environment
// (avoiding a test-only dependency on the cloud package, which imports
// this one).
type fieldEnv struct{ f *field.Field }

func (e fieldEnv) FieldValue(kind sensor.Kind, gridIdx int) float64 { return e.f.Data[gridIdx] }
func (e fieldEnv) GridDims() (int, int)                             { return e.f.W, e.f.H }
func (e fieldEnv) AreaDims() (float64, float64) {
	return float64(e.f.W) * 10, float64(e.f.H) * 10
}

// testNC builds a broker over a plume field with n attached nodes. Every
// broker test it serves runs under the goroutine-leak guard: the cleanup
// below detaches all nodes and closes the bus, and the guard fails the
// test if any handler goroutine outlives that teardown.
func testNC(t *testing.T, nNodes int, seed int64) (*Broker, *field.Field, []*node.Node) {
	t.Helper()
	testutil.CheckGoroutines(t)
	truth := field.GenPlumes(8, 8, 10, []field.Plume{{Row: 3, Col: 5, Sigma: 2.2, Amplitude: 30}})
	env := fieldEnv{f: truth}
	b := bus.New()
	br, err := New(Config{ID: "nc0", Seed: seed, Timeout: 2 * time.Second}, b, env)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var nodes []*node.Node
	for i := 0; i < nNodes; i++ {
		mob, err := mobility.NewRandomWaypoint(rand.New(rand.NewSource(rng.Int63())), 80, 80, 1, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := node.New(node.Config{
			ID: fmt.Sprintf("n%d", i), Seed: rng.Int63(), Profile: sensor.ProfileMidrange,
		}, env, mob)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.AttachBus(b, "nc0"); err != nil {
			t.Fatal(err)
		}
		if err := br.Register(nd.ID); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Detach()
		}
		b.Close()
	})
	return br, truth, nodes
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, bus.New(), nil); err == nil {
		t.Fatal("want error")
	}
	if _, err := New(Config{ID: "x"}, nil, nil); err == nil {
		t.Fatal("want error")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	br, _, _ := testNC(t, 1, 1)
	if err := br.Register("n0"); err == nil {
		t.Fatal("want duplicate error")
	}
	if err := br.Register(""); err == nil {
		t.Fatal("want empty-ID error")
	}
}

func TestPositionsQueriesAllNodes(t *testing.T) {
	br, _, _ := testNC(t, 4, 2)
	pos := br.PositionsContext(context.Background())
	if len(pos) != 4 {
		t.Fatalf("positions for %d nodes, want 4", len(pos))
	}
	for id, idx := range pos {
		if idx < 0 || idx >= 64 {
			t.Fatalf("node %s at invalid cell %d", id, idx)
		}
	}
}

func TestGatherUsesNodesAndInfraFallback(t *testing.T) {
	br, _, _ := testNC(t, 5, 3)
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Locs) != 20 {
		t.Fatalf("gathered %d, want 20", len(g.Locs))
	}
	if g.NodesUsed == 0 {
		t.Fatal("no mobile nodes used")
	}
	if g.InfraUsed == 0 {
		t.Fatal("infrastructure fallback not engaged (5 nodes < 20 cells)")
	}
	if g.NodesUsed+g.InfraUsed != 20 {
		t.Fatalf("nodes %d + infra %d != 20", g.NodesUsed, g.InfraUsed)
	}
	// Locations distinct.
	seen := map[int]bool{}
	for _, l := range g.Locs {
		if seen[l] {
			t.Fatalf("duplicate cell %d", l)
		}
		seen[l] = true
	}
	if len(g.Values) != 20 || len(g.Sigmas) != 20 {
		t.Fatal("values/sigmas length mismatch")
	}
}

func TestGatherCountsPrivacyDenials(t *testing.T) {
	br, _, nodes := testNC(t, 3, 4)
	for _, nd := range nodes {
		nd.Policy.SetOptOut(true)
	}
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Denied != 3 {
		t.Fatalf("denied %d, want 3", g.Denied)
	}
	if g.NodesUsed != 0 || g.InfraUsed != 10 {
		t.Fatalf("nodes %d infra %d", g.NodesUsed, g.InfraUsed)
	}
}

func TestGatherValidation(t *testing.T) {
	br, _, _ := testNC(t, 1, 5)
	if _, err := br.GatherContext(context.Background(), sensor.Temperature, 0); err == nil {
		t.Fatal("want budget error")
	}
	// Budget above the cell count clamps.
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Locs) != 64 {
		t.Fatalf("clamped gather %d, want 64", len(g.Locs))
	}
}

func TestReconstructRecoversPlume(t *testing.T) {
	br, truth, _ := testNC(t, 6, 6)
	rec, err := br.ReconstructContext(context.Background(), sensor.Temperature, 28, ReconstructOptions{Basis: basis.KindDCT, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	nmse := cs.NMSE(truth.Data, rec.Field.Data)
	if nmse > 0.01 {
		t.Fatalf("plume reconstruction NMSE %v, want < 1%%", nmse)
	}
	// The hotspot localizes to within one cell.
	r, c, _ := rec.Field.MaxLoc()
	if (r-3)*(r-3)+(c-5)*(c-5) > 2 {
		t.Fatalf("hotspot found at (%d,%d), truth (3,5)", r, c)
	}
}

func TestReconstructGLSOption(t *testing.T) {
	br, truth, _ := testNC(t, 6, 7)
	rec, err := br.ReconstructContext(context.Background(), sensor.Temperature, 28, ReconstructOptions{UseGLS: true, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if nmse := cs.NMSE(truth.Data, rec.Field.Data); nmse > 0.05 {
		t.Fatalf("GLS reconstruction NMSE %v", nmse)
	}
}

func TestReconstructDefaultsKHeuristic(t *testing.T) {
	br, _, _ := testNC(t, 4, 8)
	rec, err := br.ReconstructContext(context.Background(), sensor.Temperature, 24, ReconstructOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Result.Support) > 24/3 {
		t.Fatalf("support %d exceeds K heuristic", len(rec.Result.Support))
	}
}

func TestBatterySelectionPrefersFullNodes(t *testing.T) {
	// Build an NC with the battery policy; drain half the fleet and check
	// the drained nodes are not solicited while full ones remain.
	truth := field.GenSmoothGradient(8, 8, 20, 5, 2)
	env := fieldEnv{f: truth}
	b := bus.New()
	defer b.Close()
	br, err := New(Config{ID: "nc0", Seed: 9, Timeout: 2 * time.Second, Selection: SelectBattery}, b, env)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var nodes []*node.Node
	for i := 0; i < 6; i++ {
		mob, err := mobility.NewRandomWaypoint(rand.New(rand.NewSource(rng.Int63())), 80, 80, 1, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := node.New(node.Config{
			ID: fmt.Sprintf("n%d", i), Seed: rng.Int63(), Battery: 1000,
		}, env, mob)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.AttachBus(b, "nc0"); err != nil {
			t.Fatal(err)
		}
		if err := br.Register(nd.ID); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		defer nd.Detach()
	}
	// Drain nodes 0-2 to ~10%.
	for i := 0; i < 3; i++ {
		nodes[i].Battery.Drain(900)
	}
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodesUsed == 0 {
		t.Fatal("no mobile nodes used")
	}
	// Full nodes are solicited strictly before drained ones: once a
	// drained node appears in the contribution order, no full node may
	// follow. (A full node can be skipped for duplicate coverage, letting
	// the walk reach a drained node — that ordering is still correct.)
	drained := map[string]bool{"n0": true, "n1": true, "n2": true}
	seenDrained := false
	for _, id := range g.NodeIDs {
		if id == "" {
			continue
		}
		if drained[id] {
			seenDrained = true
		} else if seenDrained {
			t.Fatalf("full node %s solicited after a drained node (ids=%v)", id, g.NodeIDs)
		}
	}
	if d := g.NodeIDs[0]; drained[d] {
		t.Fatalf("first solicited node %s is drained (ids=%v)", d, g.NodeIDs)
	}
}

func TestGatherRecordsNodeIDs(t *testing.T) {
	br, _, _ := testNC(t, 3, 10)
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.NodeIDs) != len(g.Locs) {
		t.Fatalf("NodeIDs length %d, want %d", len(g.NodeIDs), len(g.Locs))
	}
	mobile, infra := 0, 0
	for _, id := range g.NodeIDs {
		if id == "" {
			infra++
		} else {
			mobile++
		}
	}
	if mobile != g.NodesUsed || infra != g.InfraUsed {
		t.Fatalf("NodeIDs inconsistent: mobile=%d infra=%d vs %d/%d", mobile, infra, g.NodesUsed, g.InfraUsed)
	}
}

func TestGatherSurvivesUnreachableNodes(t *testing.T) {
	// Register ghosts that never attached to the bus: requests time out
	// and the infra fallback still fills the budget.
	truth := field.GenSmoothGradient(8, 8, 20, 5, 2)
	env := fieldEnv{f: truth}
	b := bus.New()
	defer b.Close()
	br, err := New(Config{ID: "nc0", Seed: 11, Timeout: 50 * time.Millisecond}, b, env)
	if err != nil {
		t.Fatal(err)
	}
	br.Register("ghost1")
	br.Register("ghost2")
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodesUsed != 0 || g.InfraUsed != 6 {
		t.Fatalf("gather %+v, want all-infra", g)
	}
}

// measureRequest reports whether a bus topic is a broker→node measure
// command (and not the reply leg of one).
func measureRequest(topic string) bool {
	return strings.Contains(topic, "/measure") && !strings.Contains(topic, "/reply/")
}

// TestGatherRetriesTransientNodeFailures injects a one-shot crash per
// node at the transport (every first measure command fails with netsim's
// typed down error) and asserts the broker's retry layer recovers the
// full round instead of writing the nodes off.
func TestGatherRetriesTransientNodeFailures(t *testing.T) {
	br, _, _ := testNC(t, 3, 21)
	var mu sync.Mutex
	attempts := map[string]int{}
	br.Bus.SetInterceptor(func(m bus.Message) (bool, error) {
		if !measureRequest(m.Topic) {
			return true, nil
		}
		mu.Lock()
		attempts[m.Topic]++
		first := attempts[m.Topic] == 1
		mu.Unlock()
		if first {
			return false, &netsim.NodeDownError{ID: m.Topic}
		}
		return true, nil
	})
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodesUsed == 0 {
		t.Fatal("no node recovered: retry layer not engaged")
	}
	if len(g.Locs) != 6 {
		t.Fatalf("gathered %d, want 6", len(g.Locs))
	}
	mu.Lock()
	defer mu.Unlock()
	for topic, n := range attempts {
		if n < 2 {
			t.Fatalf("node %s solicited %d time(s); the transient failure was never retried", topic, n)
		}
	}
}

// TestGatherInfraTopUpForPermanentlyDownNode pins the other side of the
// retry budget: a node that stays down exhausts its attempts, is
// skipped, and the infra fallback still fills the round.
func TestGatherInfraTopUpForPermanentlyDownNode(t *testing.T) {
	br, _, _ := testNC(t, 3, 22)
	var mu sync.Mutex
	attempts := map[string]int{}
	br.Bus.SetInterceptor(func(m bus.Message) (bool, error) {
		if measureRequest(m.Topic) && strings.Contains(m.Topic, "/n0/") {
			mu.Lock()
			attempts[m.Topic]++
			mu.Unlock()
			return false, &netsim.NodeDownError{ID: "n0"}
		}
		return true, nil
	})
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Locs) != 8 {
		t.Fatalf("gathered %d, want 8 (infra must absorb the down node)", len(g.Locs))
	}
	if g.InfraUsed == 0 {
		t.Fatal("infra top-up not engaged despite a down node")
	}
	mu.Lock()
	defer mu.Unlock()
	for topic, n := range attempts {
		if n != 3 {
			t.Fatalf("down node %s got %d attempts, want 3 (default retry budget)", topic, n)
		}
	}
	// Distinct cells even under faults.
	seen := map[int]bool{}
	for _, l := range g.Locs {
		if seen[l] {
			t.Fatalf("duplicate cell %d in faulted gather", l)
		}
		seen[l] = true
	}
}

// TestGatherContextCancelledMidRoster cancels while the roster walk is in
// flight (at the second node's solicitation) and asserts the round
// returns the wrapped context error instead of a partial result.
func TestGatherContextCancelledMidRoster(t *testing.T) {
	br, _, _ := testNC(t, 4, 23)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int32
	br.Bus.SetInterceptor(func(m bus.Message) (bool, error) {
		if measureRequest(m.Topic) && n.Add(1) == 2 {
			cancel()
		}
		return true, nil
	})
	_, err := br.GatherContext(ctx, sensor.Temperature, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-roster cancel = %v, want wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("error %q does not identify the abandoned round", err)
	}
}

// TestGatherDeduplicatesCoLocatedNodes crowds six nodes onto a 2×2 grid
// so cell collisions are unavoidable and pins the duplicate path:
// co-located readings are dropped, the result has distinct cells, and
// the per-source counts stay consistent.
func TestGatherDeduplicatesCoLocatedNodes(t *testing.T) {
	truth := field.GenSmoothGradient(2, 2, 20, 5, 2)
	env := fieldEnv{f: truth}
	b := bus.New()
	defer b.Close()
	br, err := New(Config{ID: "nc0", Seed: 24, Timeout: 2 * time.Second}, b, env)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 6; i++ {
		mob, err := mobility.NewRandomWaypoint(rand.New(rand.NewSource(rng.Int63())), 20, 20, 1, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := node.New(node.Config{ID: fmt.Sprintf("n%d", i), Seed: rng.Int63()}, env, mob)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.AttachBus(b, "nc0"); err != nil {
			t.Fatal(err)
		}
		if err := br.Register(nd.ID); err != nil {
			t.Fatal(err)
		}
		ndRef := nd
		defer ndRef.Detach()
	}
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range g.Locs {
		if seen[l] {
			t.Fatalf("duplicate cell %d survived dedup", l)
		}
		seen[l] = true
	}
	if g.NodesUsed+g.InfraUsed != len(g.Locs) {
		t.Fatalf("source counts %d+%d inconsistent with %d cells", g.NodesUsed, g.InfraUsed, len(g.Locs))
	}
	if len(g.Locs) != 4 {
		t.Fatalf("gathered %d cells on a 4-cell grid with budget 4", len(g.Locs))
	}
}

// TestGatherShortfallWithInfraDisabled pins the partial-result contract
// under a regional infra outage: the round reports how far under budget
// it landed instead of failing or silently shrinking.
func TestGatherShortfallWithInfraDisabled(t *testing.T) {
	br, _, _ := testNC(t, 2, 25)
	br.SetInfraEnabled(false)
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.InfraUsed != 0 {
		t.Fatal("infra used despite outage")
	}
	if g.NodesUsed == 0 || g.NodesUsed > 2 {
		t.Fatalf("NodesUsed = %d with a 2-node roster", g.NodesUsed)
	}
	if g.Shortfall != 10-len(g.Locs) || g.Shortfall == 0 {
		t.Fatalf("shortfall %d inconsistent with %d/10 gathered", g.Shortfall, len(g.Locs))
	}
}

// TestGatherContextCancelled pins the new cancellation path: a cancelled
// context aborts the round promptly with the context error instead of
// draining the roster at one timeout per node.
func TestGatherContextCancelled(t *testing.T) {
	br, _, _ := testNC(t, 3, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := br.GatherContext(ctx, sensor.Temperature, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("GatherContext with cancelled ctx = %v, want context.Canceled", err)
	}
	// The context-less wrapper still works after a cancelled round.
	if _, err := br.GatherContext(context.Background(), sensor.Temperature, 5); err != nil {
		t.Fatalf("Gather after cancelled round: %v", err)
	}
}
