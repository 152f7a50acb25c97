package broker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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
func sequentialGather(br *Broker, kind sensor.Kind, m int, exclude map[int]bool) (*GatherResult, error) {
	ctx := context.Background()
	gw, gh := br.env.GridDims()
	n := gw * gh
	avail := n
	for cell := range exclude {
		if cell >= 0 && cell < n {
			avail--
		}
	}
	m = min(m, avail)
	res := &GatherResult{}
	seen := make(map[int]bool)
	for _, id := range br.orderNodes(ctx) {
		if len(res.Locs) >= m {
			break
		}
		var reading node.FieldReading
		topic := node.MeasureTopic(br.ID, id)
		calls := []bus.Call{bus.NewCall(topic, "", node.MeasureRequest{Kind: string(kind)}, &reading)}
		root, _, _ := strings.Cut(topic, "/")
		bus.Scatter(ctx, br.Bus, root, calls, bus.RetryPolicy{
			Attempts: retryAttempts, AttemptTimeout: br.timeout, BaseBackoff: retryBackoff, Seed: br.retrySeed,
		})
		if calls[0].Err != nil {
			continue
		}
		if reading.Denied {
			res.Denied++
			continue
		}
		if seen[reading.GridIdx] || exclude[reading.GridIdx] {
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
		return nil, errors.New("broker: no measurements gathered")
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
func crowdedNC(t *testing.T, seed int64, policy SelectionPolicy) *Broker {
	t.Helper()
	truth := field.GenSmoothGradient(5, 5, 20, 5, 2)
	env := fieldEnv{f: truth}
	b := bus.New()
	br, err := New(Config{ID: "nc0", Seed: seed, Timeout: 10 * time.Second, Selection: policy}, b, env)
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
// claims, over 20 seeds and both selection policies: two deployments
// built from one seed, one gathered in waves and one by the sequential
// reference, return the same GatherResult field for field, round after
// round — with co-located nodes, nodes that deny, excluded cells and
// nodes whose requests fail all in play.
func TestWaveGatherEqualsSequentialWalk(t *testing.T) {
	testutil.CheckGoroutines(t)
	for seed := int64(1); seed <= 20; seed++ {
		policy := SelectRandom
		if seed%4 == 0 {
			policy = SelectBattery
		}
		waves, walk := crowdedNC(t, seed, policy), crowdedNC(t, seed, policy)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 3; round++ {
			m := 4 + rng.Intn(18)
			exclude := map[int]bool{}
			for i := rng.Intn(6); i > 0; i-- {
				exclude[rng.Intn(25)] = true
			}
			got, gotErr := waves.GatherExcludingContext(context.Background(), sensor.Temperature, m, exclude)
			want, wantErr := sequentialGather(walk, sensor.Temperature, m, exclude)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d round %d: waves err %v, walk err %v", seed, round, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d (m=%d, %d excluded, %s):\nwaves %+v\nwalk  %+v", seed, round, m, len(exclude), policy, got, want)
			}
			if got != nil && got.Denied+got.NodesUsed == 0 {
				t.Fatalf("seed %d round %d: no node took part: %+v", seed, round, got)
			}
		}
	}
}
