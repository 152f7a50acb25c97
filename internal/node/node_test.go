package node

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"math/rand"

	"repro/internal/basis"
	"repro/internal/bus"
	"repro/internal/contextproc"
	"repro/internal/mobility"
	"repro/internal/sensor"
)

// fakeEnv is a constant-valued 8×8 environment over a 80×80 m area.
type fakeEnv struct{ value float64 }

func (f fakeEnv) FieldValue(kind sensor.Kind, gridIdx int) float64 { return f.value }
func (f fakeEnv) GridDims() (int, int)                             { return 8, 8 }
func (f fakeEnv) AreaDims() (float64, float64)                     { return 80, 80 }

// callWithin runs one typed command call on NanoCloud nc0, one attempt
// that gives up after timeout.
func callWithin(b *bus.Bus, c bus.Call, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	calls := []bus.Call{c}
	bus.Scatter(ctx, b, "nc0", calls, bus.RetryPolicy{Attempts: 1})
	return calls[0].Err
}

func newTestNode(t *testing.T, id string) *Node {
	t.Helper()
	n, err := New(Config{ID: id, Seed: 42, Profile: sensor.ProfileMidrange},
		fakeEnv{value: 21.5},
		mobility.Static{P: mobility.Point{X: 35, Y: 15}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	env := fakeEnv{}
	mob := mobility.Static{}
	if _, err := New(Config{}, env, mob); err == nil {
		t.Fatal("want ID error")
	}
	if _, err := New(Config{ID: "n"}, nil, mob); err == nil {
		t.Fatal("want env error")
	}
	if _, err := New(Config{ID: "n"}, env, nil); err == nil {
		t.Fatal("want mobility error")
	}
}

func TestGridIndexFromPosition(t *testing.T) {
	n := newTestNode(t, "n0")
	// Position (35,15) in 80×80 m on an 8×8 grid → col 3, row 1 → 3*8+1.
	if got := n.GridIndex(); got != 3*8+1 {
		t.Fatalf("grid index %d, want %d", got, 3*8+1)
	}
}

func TestMeasureFieldValueAndEnergy(t *testing.T) {
	n := newTestNode(t, "n0")
	before := n.Meter.TotalMJ()
	r, err := n.MeasureField(sensor.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	if r.Denied {
		t.Fatal("temperature sharing should be allowed by default")
	}
	if math.Abs(r.Value-21.5) > 1.5 {
		t.Fatalf("measured %v, truth 21.5", r.Value)
	}
	if r.Sigma <= 0 {
		t.Fatal("sigma not reported")
	}
	if n.Meter.TotalMJ() <= before {
		t.Fatal("sampling was free")
	}
}

func TestMeasureFieldUnknownKind(t *testing.T) {
	n := newTestNode(t, "n0")
	if _, err := n.MeasureField(sensor.Kind("sonar")); err == nil {
		t.Fatal("want no-probe error")
	}
}

func TestMeasureFieldPrivacyDenied(t *testing.T) {
	n := newTestNode(t, "n0")
	n.Policy.SetShare(sensor.Temperature, false)
	r, err := n.MeasureField(sensor.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Denied {
		t.Fatal("policy denial not honored")
	}
}

func TestBusMeasureRoundTrip(t *testing.T) {
	n := newTestNode(t, "n0")
	b := bus.New()
	if err := n.AttachBus(b, "nc0"); err != nil {
		t.Fatal(err)
	}
	defer n.Detach()
	var reading FieldReading
	if err := callWithin(b, MeasureCall("nc0", "n0", sensor.Temperature, &reading), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if reading.NodeID != "n0" || math.Abs(reading.Value-21.5) > 1.5 {
		t.Fatalf("reading %+v", reading)
	}
	var pos PositionReply
	if err := callWithin(b, PositionCall("nc0", "n0", &pos), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if pos.GridIdx != 3*8+1 {
		t.Fatalf("position %+v", pos)
	}
	// Radio energy was charged for the exchange.
	bd := n.Meter.Breakdown()
	if bd["tx/wifi"] == 0 || bd["rx/wifi"] == 0 {
		t.Fatalf("radio energy not charged: %v", bd)
	}
}

// TestTypedCommandsRoundTrip sends each command through its typed
// constructor to an attached node and checks every field of every reply,
// and the reply bytes. The replies share nodeId and gridIdx, and JSON
// decoding ignores unknown fields, so a handler answering with another
// command's reply type decodes without error; only the fields that tell
// the types apart, and the bytes on the wire, catch it.
func TestTypedCommandsRoundTrip(t *testing.T) {
	n := newTestNode(t, "n0")
	// A twin built from the same config takes the same reading.
	want, err := newTestNode(t, "n0").MeasureField(sensor.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	if want.Denied || want.Sigma <= 0 || math.Abs(want.Value-21.5) > 1.5 {
		t.Fatalf("twin reading %+v", want)
	}
	b := bus.New()
	defer b.Close()
	inbox, err := b.Subscribe("nc0/inbox/#", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachBus(b, "nc0"); err != nil {
		t.Fatal(err)
	}
	defer n.Detach()
	// The node serves the two commands and nothing else: two
	// subscriptions, one on each command's topic.
	if len(n.subs) != 2 || b.SubscriberCount(MeasureTopic("nc0", "n0")) != 1 ||
		b.SubscriberCount(bus.NodePositionTopic("nc0", "n0")) != 1 {
		t.Fatalf("AttachBus made %d subscriptions, want one per command topic", len(n.subs))
	}
	const cell = 3*8 + 1 // (35, 15) m on the 8×8 grid over 80×80 m

	var reading FieldReading
	if err := callWithin(b, MeasureCall("nc0", "n0", sensor.Temperature, &reading), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if reading != want || reading.GridIdx != cell {
		t.Fatalf("measure reply %+v, want %+v at cell %d", reading, want, cell)
	}
	var pos PositionReply
	if err := callWithin(b, PositionCall("nc0", "n0", &pos), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if pos != (PositionReply{NodeID: "n0", GridIdx: cell}) {
		t.Fatalf("position reply %+v", pos)
	}

	for i, r := range []reply{reading, pos} {
		wantRaw, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if msg := <-inbox.C; !bytes.Equal(msg.Payload, wantRaw) {
			t.Errorf("reply %d on the wire = %s, want %s", i, msg.Payload, wantRaw)
		}
	}
}

// TestServeSuppressesDuplicateRequests publishes the exact same request
// envelope twice — what netsim's async duplicate knob does to the bus —
// and asserts the node serves it once: one reply, one measurement.
func TestServeSuppressesDuplicateRequests(t *testing.T) {
	n := newTestNode(t, "n0")
	b := bus.New()
	defer b.Close()
	if err := n.AttachBus(b, "nc0"); err != nil {
		t.Fatal(err)
	}
	defer n.Detach()
	reply, err := b.Subscribe("dup/reply", 4)
	if err != nil {
		t.Fatal(err)
	}
	env := []byte(`{"replyTo":"dup/reply","body":{"kind":"temperature"}}`)
	for i := 0; i < 2; i++ {
		if err := b.Publish(MeasureTopic("nc0", "n0"), env); err != nil {
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
	// A different request (fresh reply-to) is served normally.
	var reading FieldReading
	if err := callWithin(b, MeasureCall("nc0", "n0", sensor.Temperature, &reading), 2*time.Second); err != nil {
		t.Fatalf("fresh request after duplicates: %v", err)
	}
}

// TestDedupRingMatchesSlidingWindow drives the reply-to ring and the
// map-plus-queue window it replaced with the same random key stream —
// recent repeats, repeats just past the window, fresh keys — and asserts
// the two agree on every key.
func TestDedupRingMatchesSlidingWindow(t *testing.T) {
	var ring dedupRing
	seen := map[string]bool{}
	var order []string
	rng := rand.New(rand.NewSource(5))
	var keys []string
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("reply/%d", len(keys))
		if len(keys) > 0 && rng.Intn(2) == 0 {
			back := 1 + rng.Intn(min(len(keys), 2*dedupWindow))
			key = keys[len(keys)-back]
		}
		keys = append(keys, key)
		fresh := !seen[key]
		if fresh {
			seen[key] = true
			order = append(order, key)
			if len(order) > dedupWindow {
				delete(seen, order[0])
				order = order[1:]
			}
		}
		if got := ring.add(key); got != fresh {
			t.Fatalf("key %d (%s): ring says fresh=%v, sliding window says %v", i, key, got, fresh)
		}
	}
}

func TestDetachStopsServing(t *testing.T) {
	n := newTestNode(t, "n0")
	b := bus.New()
	if err := n.AttachBus(b, "nc0"); err != nil {
		t.Fatal(err)
	}
	n.Detach()
	var reading FieldReading
	if err := callWithin(b, MeasureCall("nc0", "n0", sensor.Temperature, &reading), 50*time.Millisecond); err == nil {
		t.Fatal("detached node still serving")
	}
}

func TestSenseContextFullWindow(t *testing.T) {
	n, err := New(Config{ID: "n1", Seed: 7, Motion: sensor.MotionDriving},
		fakeEnv{}, mobility.Static{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.SenseContext(256, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Activity != contextproc.ActivityDriving {
		t.Fatalf("activity %s, want driving", rep.Activity)
	}
	if rep.Stress <= 0 {
		t.Fatal("stress not derived")
	}
}

func TestSenseContextCompressiveSavesEnergy(t *testing.T) {
	mk := func() *Node {
		n, err := New(Config{ID: "n1", Seed: 7, Motion: sensor.MotionDriving},
			fakeEnv{}, mobility.Static{})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	full := mk()
	if _, err := full.SenseContext(256, 64, nil); err != nil {
		t.Fatal(err)
	}
	comp := mk()
	dft, err := basis.OperatorFor(basis.KindDFT, 256)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := contextproc.NewPipeline(dft, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := comp.SenseContext(256, 64, pipe)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Activity != contextproc.ActivityDriving {
		t.Fatalf("compressive activity %s", rep.Activity)
	}
	fa := full.Meter.Breakdown()["sense/accelerometer"]
	ca := comp.Meter.Breakdown()["sense/accelerometer"]
	if ca >= fa {
		t.Fatalf("compressive accel energy %v not below full %v", ca, fa)
	}
	// 30/256 duty cycle → ~88% accelerometer savings.
	if ca/fa > 0.15 {
		t.Fatalf("duty cycle energy ratio %v, want ~30/256", ca/fa)
	}
}

func TestMoveAdvancesPosition(t *testing.T) {
	env := fakeEnv{}
	mobRng, err := mobility.NewGaussMarkov(newRand(3), 80, 80, 0.7, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: "n2", Seed: 3}, env, mobRng)
	if err != nil {
		t.Fatal(err)
	}
	p0 := n.Move(0)
	p1 := n.Move(10)
	if p0 == p1 {
		t.Fatal("node did not move")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
