package broker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/sensor"
	"repro/internal/testutil"
)

// sequentialGather is the reference the wave gather must equal: the
// roster walked one node at a time in orderNodes order, each node asked
// only while the budget is open, then the infrastructure top-up. It is
// the loop GatherExcludingContext had before requests overlapped, kept
// here (and only here) as the specification.
func sequentialGather(br *Broker, kind sensor.Kind, m int, exclude []bool) (*GatherResult, error) {
	ctx := context.Background()
	gw, gh := br.env.GridDims()
	n := gw * gh
	avail := n
	for _, ex := range exclude {
		if ex {
			avail--
		}
	}
	m = min(m, avail)
	res := &GatherResult{}
	seen := make(map[int]bool)
	for _, id := range br.orderNodes() {
		if len(res.Locs) >= m {
			break
		}
		var reading node.FieldReading
		calls := []bus.Call{node.MeasureCall(br.ID, id, kind, &reading)}
		bus.Scatter(ctx, br.Bus, br.ID, calls, bus.RetryPolicy{
			Attempts: retryAttempts, AttemptTimeout: br.timeout, BaseBackoff: retryBackoff, Seed: br.retrySeed,
		})
		if calls[0].Err != nil {
			res.Failed++
			continue
		}
		if reading.Denied {
			res.Denied++
			continue
		}
		if seen[reading.GridIdx] || exclude[reading.GridIdx] {
			res.Discarded++
			continue
		}
		seen[reading.GridIdx] = true
		res.Locs = append(res.Locs, reading.GridIdx)
		res.Values = append(res.Values, reading.Value)
		res.Sigmas = append(res.Sigmas, reading.Sigma)
		res.NodeIDs = append(res.NodeIDs, reading.NodeID)
		res.NodesUsed++
	}
	if len(res.Locs) < m && br.infraEnabled() {
		var free []int
		for i := 0; i < n; i++ {
			if !seen[i] && !exclude[i] {
				free = append(free, i)
			}
		}
		br.mu.Lock()
		br.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		for _, cell := range free[:min(m-len(res.Locs), len(free))] {
			v := br.env.FieldValue(kind, cell) + br.rng.NormFloat64()*infraSigma
			res.Locs = append(res.Locs, cell)
			res.Values = append(res.Values, v)
			res.Sigmas = append(res.Sigmas, infraSigma)
			res.NodeIDs = append(res.NodeIDs, "")
			res.InfraUsed++
		}
		br.mu.Unlock()
	}
	if len(res.Locs) == 0 {
		return res, errors.New("broker: no measurements gathered")
	}
	res.Shortfall = m - len(res.Locs)
	return res, nil
}

// crowdedNC builds one deployment of the property below from a seed: 24
// nodes crowded onto a 5x5 grid (co-location is the rule), a few of them
// opted out of sharing, and two more that are registered but broken:
// every request to them fails. They fail by answering with something that
// does not decode, which is immediate and terminal where a dead node's
// silence would be a timeout; the gather treats the two alike, and the
// comparison stays off the clock.
func crowdedNC(t *testing.T, seed int64) *Broker {
	t.Helper()
	truth := field.GenSmoothGradient(5, 5, 20, 5, 2)
	env := fieldEnv{f: truth}
	b := bus.New()
	br, err := New(Config{ID: "nc0", Seed: seed, Timeout: 10 * time.Second}, b, env)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var nodes []*node.Node
	for i := 0; i < 24; i++ {
		mob, err := mobility.NewRandomWaypoint(rand.New(rand.NewSource(rng.Int63())), 50, 50, 1, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := node.New(node.Config{ID: fmt.Sprintf("n%d", i), Seed: rng.Int63(), Profile: sensor.ProfileMidrange}, env, mob)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(6) == 0 {
			nd.Policy.SetOptOut(true)
		}
		if err := nd.AttachBus(b, "nc0"); err != nil {
			t.Fatal(err)
		}
		if err := br.Register(nd.ID); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	ctx, cancel := context.WithCancel(context.Background())
	broken := make(chan struct{})
	go func() {
		defer close(broken)
		//lint:ignore errcheck test responder: it returns when the cleanup cancels it
		_ = bus.RespondContext(ctx, b, "nc0/node/broken/#", func(string, []byte) (any, error) {
			return "not a reading", nil
		})
	}()
	for i := 0; i < 2; i++ {
		if err := br.Register(fmt.Sprintf("broken/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for b.SubscriberCount(node.MeasureTopic("nc0", "broken/0")) == 0 {
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		cancel()
		<-broken
		for _, nd := range nodes {
			nd.Detach()
		}
		b.Close()
	})
	return br
}

// TestWaveGatherEqualsSequentialWalk is the equivalence the wave gather
// claims, over 20 seeds: two deployments built from one seed, one
// gathered in waves and one by the sequential reference, return the
// same GatherResult field for field, round after round — with co-located
// nodes, nodes that deny, excluded cells and nodes whose requests fail
// all in play.
func TestWaveGatherEqualsSequentialWalk(t *testing.T) {
	testutil.CheckGoroutines(t)
	for seed := int64(1); seed <= 20; seed++ {
		waves, walk := crowdedNC(t, seed), crowdedNC(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 3; round++ {
			m := 4 + rng.Intn(18)
			exclude := make([]bool, 25)
			for i := rng.Intn(6); i > 0; i-- {
				exclude[rng.Intn(25)] = true
			}
			got, gotErr := waves.GatherExcludingContext(context.Background(), sensor.Temperature, m, exclude)
			want, wantErr := sequentialGather(walk, sensor.Temperature, m, exclude)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d round %d: waves err %v, walk err %v", seed, round, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d (m=%d, %d excluded):\nwaves %+v\nwalk  %+v", seed, round, m, countTrue(exclude), got, want)
			}
			if got != nil && got.Denied+got.NodesUsed == 0 {
				t.Fatalf("seed %d round %d: no node took part: %+v", seed, round, got)
			}
		}
	}
}

func countTrue(set []bool) int {
	n := 0
	for _, b := range set {
		if b {
			n++
		}
	}
	return n
}

// TestGatherExclusion: an excluded cell is never measured, by a node or
// by the infrastructure fallback, over 20 seeds with the budget open to
// every cell left; an all-false exclusion set gathers exactly what nil
// does; and a set that does not cover the grid is refused.
func TestGatherExclusion(t *testing.T) {
	testutil.CheckGoroutines(t)
	for seed := int64(1); seed <= 20; seed++ {
		br := crowdedNC(t, seed)
		rng := rand.New(rand.NewSource(seed))
		exclude := make([]bool, 25)
		for i := 1 + rng.Intn(8); i > 0; i-- {
			exclude[rng.Intn(25)] = true
		}
		g, err := br.GatherExcludingContext(context.Background(), sensor.Temperature, 25, exclude)
		if err != nil {
			t.Fatal(err)
		}
		if want := 25 - countTrue(exclude); len(g.Locs) != want {
			t.Fatalf("seed %d: %d cells measured, want the %d not excluded", seed, len(g.Locs), want)
		}
		for _, c := range g.Locs {
			if exclude[c] {
				t.Fatalf("seed %d: excluded cell %d measured: %+v", seed, c, g)
			}
		}
		if g.InfraUsed == 0 || g.NodesUsed == 0 {
			t.Fatalf("seed %d: want node and infrastructure readings both: %+v", seed, g)
		}

		withNil, none := crowdedNC(t, seed), crowdedNC(t, seed)
		m := 4 + rng.Intn(18)
		want, wantErr := withNil.GatherExcludingContext(context.Background(), sensor.Temperature, m, nil)
		got, gotErr := none.GatherExcludingContext(context.Background(), sensor.Temperature, m, make([]bool, 25))
		if wantErr != nil || gotErr != nil {
			t.Fatalf("seed %d: nil exclusion err %v, all-false err %v", seed, wantErr, gotErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (m=%d): all-false exclusion\n%+v\nnil exclusion\n%+v", seed, m, got, want)
		}
	}
	br := crowdedNC(t, 1)
	if _, err := br.GatherExcludingContext(context.Background(), sensor.Temperature, 4, make([]bool, 24)); err == nil {
		t.Fatal("a 24-cell exclusion set on a 25-cell grid was accepted")
	}
}

// TestGatherDropsOffGridReadings: a node that reports a cell outside the
// grid, past either end, is dropped like a duplicate, and the fallback
// fills the budget on the grid.
func TestGatherDropsOffGridReadings(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := bus.New()
	br, err := New(Config{ID: "nc0", Seed: 1, Timeout: 10 * time.Second}, b, fieldEnv{f: field.GenSmoothGradient(5, 5, 20, 5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		//lint:ignore errcheck test responder: it returns when the cleanup cancels it
		_ = bus.RespondContext(ctx, b, "nc0/node/rogue/#", func(topic string, _ []byte) (any, error) {
			cell := -1
			if topic == node.MeasureTopic("nc0", "rogue/0") {
				cell = 25
			}
			return node.FieldReading{NodeID: "rogue", GridIdx: cell, Value: 1, Sigma: 0.1}, nil
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		b.Close()
	})
	for i := 0; i < 2; i++ {
		if err := br.Register(fmt.Sprintf("rogue/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for b.SubscriberCount(node.MeasureTopic("nc0", "rogue/0")) == 0 {
		time.Sleep(time.Millisecond)
	}
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodesUsed != 0 || g.InfraUsed != 3 || len(g.Locs) != 3 {
		t.Fatalf("want the off-grid readings dropped and 3 infrastructure readings: %+v", g)
	}
	for _, c := range g.Locs {
		if c < 0 || c >= 25 {
			t.Fatalf("off-grid cell %d kept: %+v", c, g)
		}
	}
}
