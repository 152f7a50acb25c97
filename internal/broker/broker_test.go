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

	"repro/internal/bus"
	"repro/internal/cs"
	"repro/internal/energy"
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

// TestGatherRepliesCarryNodeCells: every mobile reading of a round names
// the node that took it and the cell it stands in, so a position-aware
// plan reads node positions from the measure replies it already gets.
func TestGatherRepliesCarryNodeCells(t *testing.T) {
	br, _, nodes := testNC(t, 4, 2)
	cells := map[string]int{}
	for _, nd := range nodes {
		cells[nd.ID] = nd.GridIndex()
	}
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodesUsed == 0 {
		t.Fatal("no mobile readings")
	}
	for i, id := range g.NodeIDs {
		if cell, ok := cells[id]; id != "" && (!ok || g.Locs[i] != cell) {
			t.Fatalf("reading %d from node %q at cell %d, node stands in cell %d (known %v)", i, id, g.Locs[i], cell, ok)
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

// gatherAndReconstruct runs one gather round of m temperature readings
// and decodes it.
func gatherAndReconstruct(t *testing.T, br *Broker, m int, opts ReconstructOptions) *Reconstruction {
	t.Helper()
	g, err := br.GatherContext(context.Background(), sensor.Temperature, m)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := br.ReconstructFrom(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestReconstructRecoversPlume(t *testing.T) {
	br, truth, _ := testNC(t, 6, 6)
	rec := gatherAndReconstruct(t, br, 28, ReconstructOptions{})
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
	rec := gatherAndReconstruct(t, br, 28, ReconstructOptions{UseGLS: true})
	if nmse := cs.NMSE(truth.Data, rec.Field.Data); nmse > 0.05 {
		t.Fatalf("GLS reconstruction NMSE %v", nmse)
	}
}

func TestReconstructDefaultsKHeuristic(t *testing.T) {
	br, _, _ := testNC(t, 4, 8)
	rec := gatherAndReconstruct(t, br, 24, ReconstructOptions{})
	if len(rec.Result.Support) > 24/3 {
		t.Fatalf("support %d exceeds K heuristic", len(rec.Result.Support))
	}
}

// TestReconstructStopsAtNoiseFloor: a round whose readings are noisy ends
// its decode once the residual is down to their noise, under the support
// cap; the same readings claiming no noise run to the cap.
func TestReconstructStopsAtNoiseFloor(t *testing.T) {
	br, truth, _ := testNC(t, 0, 9)
	rng := rand.New(rand.NewSource(9))
	g := &GatherResult{}
	for _, l := range rng.Perm(len(truth.Data))[:48] {
		g.Locs = append(g.Locs, l)
		g.Values = append(g.Values, truth.Data[l]+2*rng.NormFloat64())
		g.Sigmas = append(g.Sigmas, 2)
	}
	const k = 48 / 3
	rec, err := br.ReconstructFrom(g, ReconstructOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tol := cs.NoiseTol(g.Sigmas); len(rec.Result.Support) >= k || rec.Result.Residual > tol {
		t.Fatalf("noisy round: %d atoms, residual %.3g; want under %d atoms and at most the noise %.3g", len(rec.Result.Support), rec.Result.Residual, k, tol)
	}
	g.Sigmas = make([]float64, len(g.Locs))
	if rec, err = br.ReconstructFrom(g, ReconstructOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Result.Support) != k {
		t.Fatalf("noiseless round: %d atoms, want the cap %d", len(rec.Result.Support), k)
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

// TestTCPNodeServesGather runs a node.Node behind a TCP bus client, as
// cmd/sensedroid-node does: a broker gather over the server's bus gets
// the node's reading, a duplicated request envelope is served once, and
// the node's meter holds the radio and sample charges of what it served.
func TestTCPNodeServesGather(t *testing.T) {
	testutil.CheckGoroutines(t)
	env := fieldEnv{f: field.GenPlumes(8, 8, 10, []field.Plume{{Row: 3, Col: 5, Sigma: 2.2, Amplitude: 30}})}
	b := bus.New()
	defer b.Close()
	srv, err := bus.NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	br, err := New(Config{ID: "nc0", Seed: 1, Timeout: 2 * time.Second}, b, env)
	if err != nil {
		t.Fatal(err)
	}

	nd, err := node.New(node.Config{ID: "n0", Seed: 5, Profile: sensor.ProfileMidrange},
		env, mobility.Static{P: mobility.Point{X: 35, Y: 15}})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := bus.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	topic := node.MeasureTopic("nc0", "n0")
	cmds, err := cli.Subscribe(topic)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		nd.Serve(cmds, cli.Publish)
	}()
	for deadline := time.Now().Add(2 * time.Second); b.SubscriberCount(topic) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the node's subscription never reached the server's bus")
		}
	}
	if err := br.Register("n0"); err != nil {
		t.Fatal(err)
	}

	g, err := br.GatherContext(context.Background(), sensor.Temperature, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodesUsed != 1 || g.InfraUsed != 0 || g.NodeIDs[0] != "n0" || g.Locs[0] != nd.GridIndex() {
		t.Fatalf("gather %+v, want the one reading of n0 from cell %d", g, nd.GridIndex())
	}

	reply, err := b.Subscribe("dup/reply", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer reply.Unsubscribe()
	dup := []byte(`{"replyTo":"dup/reply","body":{"kind":"temperature"}}`)
	for i := 0; i < 2; i++ {
		if err := b.Publish(topic, dup); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-reply.C:
	case <-time.After(2 * time.Second):
		t.Fatal("no reply to the first delivery")
	}
	select {
	case <-reply.C:
		t.Fatal("duplicate delivery was served again")
	case <-time.After(100 * time.Millisecond):
	}

	// Two commands were served, so two samples were charged: the gather's
	// and the first copy of the duplicated one.
	var want energy.Meter
	want.ChargeSamples(sensor.Temperature, 2)
	got := nd.Meter.Breakdown()
	if s := "sense/" + sensor.Temperature.String(); got[s] == 0 || got[s] != want.Breakdown()[s] {
		t.Fatalf("%s charged %v mJ, want %v (two samples)", s, got[s], want.Breakdown()[s])
	}
	if got["rx/wifi"] == 0 || got["tx/wifi"] == 0 {
		t.Fatalf("radio energy not charged: %v", got)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	<-served // Serve returns once the connection's channel closes
}
