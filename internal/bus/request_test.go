package bus_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/sensor"
	"repro/internal/testutil"
)

// flatEnv is a 4x4 grid that reads 20 everywhere.
type flatEnv struct{}

func (flatEnv) FieldValue(sensor.Kind, int) float64 { return 20 }
func (flatEnv) GridDims() (int, int)                { return 4, 4 }
func (flatEnv) AreaDims() (float64, float64)        { return 40, 40 }

// TestMeasureRequestAllocations pins what one in-process measure request
// allocates, end to end: a scatter of one call built as a broker's gather
// builds it (topic built at register, body encoded once, the reading
// holding the node's ID), the node's Serve answering it, and the reply
// decoded. What is left is the node's reply buffer and its copy of the
// reply topic (its duplicate-command window keeps it), and the scatter's
// own share, which a wide wave splits among its calls: its state with
// the reply inbox in it, the inbox's function (the state's settle
// method), the inbox pattern, the reply slots and the attempt's envelope
// buffer. The node answers inside Publish, so the attempt arms no timer.
func TestMeasureRequestAllocations(t *testing.T) {
	testutil.Watchdog(t, 30*time.Second)
	b := bus.New()
	defer b.Close()
	mob, err := mobility.NewRandomWaypoint(rand.New(rand.NewSource(1)), 40, 40, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{ID: "n0", Seed: 1}, flatEnv{}, mob)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.AttachBus(b, "nc0"); err != nil {
		t.Fatal(err)
	}
	defer nd.Detach()
	topic := node.MeasureTopic("nc0", nd.ID)
	body, err := node.MeasureRequest{Kind: sensor.Temperature.String()}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	pol := bus.RetryPolicy{Attempts: 3, AttemptTimeout: 2 * time.Second, BaseBackoff: 5 * time.Millisecond, Seed: 1}
	calls := make([]bus.Call, 1)
	var reading node.FieldReading
	request := func() {
		reading = node.FieldReading{NodeID: nd.ID}
		calls[0] = bus.NewCall(topic, nd.ID, body, &reading)
		bus.Scatter(context.Background(), b, "nc0", calls, pol)
		if calls[0].Err != nil || reading.NodeID != nd.ID || reading.Value == 0 {
			t.Fatalf("request: %v, reading %+v", calls[0].Err, reading)
		}
	}
	request() // the node's first command names its kind
	const want = 2 + 5
	if allocs := testing.AllocsPerRun(200, request); allocs != want {
		t.Errorf("a measure request allocates %v times, want %d", allocs, want)
	}
}
