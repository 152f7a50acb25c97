package broker

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/sensor"
	"repro/internal/testutil"
)

// transportNodes is the NanoCloud size of TestTransportIsNotAVariable.
const transportNodes = 16

// gatherOver runs one gather of 12 readings over a NanoCloud of
// transportNodes nodes, scattered at seeded fixed positions (some share a
// cell), and returns the result and each node's meter breakdown. Over
// TCP, each node serves through its own client of a loopback bus.Server
// (Node.Serve, as cmd/sensedroid-node does); otherwise it is attached to
// the broker's bus in process (AttachBus). Everything is torn down before
// it returns, and a watchdog bounds the test.
func gatherOver(t *testing.T, tcp bool, seed int64) (*GatherResult, []map[string]float64) {
	t.Helper()
	// Over TCP the broker's replies are decoded on the server's read
	// loops: a lost wakeup hangs the gather, which the watchdog fails.
	testutil.Watchdog(t, 30*time.Second)
	env := fieldEnv{f: field.GenPlumes(8, 8, 10, []field.Plume{{Row: 3, Col: 5, Sigma: 2.2, Amplitude: 30}})}
	b := bus.New()
	defer b.Close()
	br, err := New(Config{ID: "nc0", Seed: seed, Timeout: 2 * time.Second}, b, env)
	if err != nil {
		t.Fatal(err)
	}
	var teardown []func()
	defer func() {
		for i := len(teardown) - 1; i >= 0; i-- {
			teardown[i]()
		}
	}()
	var srv *bus.Server
	if tcp {
		if srv, err = bus.NewServer(b, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		teardown = append(teardown, srv.Close)
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*node.Node, transportNodes)
	for i := range nodes {
		at := mobility.Static{P: mobility.Point{X: 80 * rng.Float64(), Y: 80 * rng.Float64()}}
		nd, err := node.New(node.Config{ID: fmt.Sprintf("n%d", i), Seed: rng.Int63(), Profile: sensor.ProfileMidrange}, env, at)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		if !tcp {
			if err := nd.AttachBus(b, "nc0"); err != nil {
				t.Fatal(err)
			}
			teardown = append(teardown, nd.Detach)
		} else {
			cli, err := bus.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			topic := node.MeasureTopic("nc0", nd.ID)
			cmds, err := cli.Subscribe(topic)
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				nd.Serve(cmds, cli.Publish)
			}()
			teardown = append(teardown, func() {
				if err := cli.Close(); err != nil {
					t.Error(err)
				}
				<-served
			})
			for deadline := time.Now().Add(2 * time.Second); b.SubscriberCount(topic) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s's subscription never reached the server's bus", nd.ID)
				}
			}
		}
		if err := br.Register(nd.ID); err != nil {
			t.Fatal(err)
		}
	}
	g, err := br.GatherContext(context.Background(), sensor.Temperature, 12)
	if err != nil {
		t.Fatal(err)
	}
	meters := make([]map[string]float64, len(nodes))
	for i, nd := range nodes {
		meters[i] = nd.Meter.Breakdown()
	}
	return g, meters
}

// TestTransportIsNotAVariable pins a NanoCloud gather over loopback TCP to
// the same gather over the in-process bus, bit for bit: the same
// readings, sigmas and nodes in the same order, and the same charges on
// every node's meter, at several seeds.
func TestTransportIsNotAVariable(t *testing.T) {
	testutil.CheckGoroutines(t)
	discarded := 0
	for seed := int64(1); seed <= 4; seed++ {
		local, localMeters := gatherOver(t, false, seed)
		wire, wireMeters := gatherOver(t, true, seed)
		if d := sameGather(local, wire); d != "" {
			t.Errorf("seed %d: TCP gather differs from the in-process one: %s", seed, d)
		}
		if local.NodesUsed == 0 {
			t.Errorf("seed %d: no node's reading was kept", seed)
		}
		discarded += local.Discarded
		for i := range localMeters {
			for k, v := range localMeters[i] {
				if w := wireMeters[i][k]; math.Float64bits(w) != math.Float64bits(v) {
					t.Errorf("seed %d: n%d charged %v mJ to %s over TCP, %v in process", seed, i, w, k, v)
				}
			}
			if len(wireMeters[i]) != len(localMeters[i]) {
				t.Errorf("seed %d: n%d meters %v over TCP, %v in process", seed, i, wireMeters[i], localMeters[i])
			}
		}
	}
	if discarded == 0 {
		t.Error("no reading was discarded: no two nodes shared a cell")
	}
}

// sameGather says how two gathers differ ("" when they do not).
func sameGather(a, b *GatherResult) string {
	if fmt.Sprint(a.Locs, a.NodeIDs) != fmt.Sprint(b.Locs, b.NodeIDs) {
		return fmt.Sprintf("cells and nodes %v %v, want %v %v", b.Locs, b.NodeIDs, a.Locs, a.NodeIDs)
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) || math.Float64bits(a.Sigmas[i]) != math.Float64bits(b.Sigmas[i]) {
			return fmt.Sprintf("reading %d is %v±%v, want %v±%v", i, b.Values[i], b.Sigmas[i], a.Values[i], a.Sigmas[i])
		}
	}
	if a.NodesUsed != b.NodesUsed || a.InfraUsed != b.InfraUsed || a.Denied != b.Denied || a.Discarded != b.Discarded || a.Failed != b.Failed {
		return fmt.Sprintf("ledger %+v, want %+v", *b, *a)
	}
	return ""
}
