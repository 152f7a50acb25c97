package node

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/testutil"
)

// rawEnvelope mirrors the bus request envelope so churn tests can
// publish commands with a *chosen* reply-to topic (bus.RequestContext always
// generates a unique one, which would never collide with a dedup entry).
type rawEnvelope struct {
	ReplyTo string          `json:"replyTo"`
	Body    json.RawMessage `json:"body"`
}

func publishCommand(t *testing.T, b *bus.Bus, topic, replyTo string, body any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(rawEnvelope{ReplyTo: replyTo, Body: raw})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(topic, env); err != nil {
		t.Fatal(err)
	}
}

func awaitReply(t *testing.T, sub *bus.Subscription, what string) bus.Message {
	t.Helper()
	select {
	case msg, ok := <-sub.C:
		if !ok {
			t.Fatalf("%s: reply channel closed", what)
		}
		return msg
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: no reply within 2s", what)
	}
	return bus.Message{}
}

// TestChurnRecycledNodeIDs is the fleet-scale churn audit: 10 000 nodes
// attach, serve, and detach on one shared bus across generations that
// recycle the same node IDs. Run with -race. The goroutine guard pins
// that Detach really joins every serving goroutine — a single leaked
// serve loop per node would show up 10 000-fold here — and the served
// measure checks pin that a recycled ID's handlers are live and answer
// as the *new* node.
func TestChurnRecycledNodeIDs(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		cohort      = 500
		generations = 20 // cohort × generations = 10 000 attach/detach cycles
	)
	b := bus.New()
	defer b.Close()
	env := fakeEnv{value: 5}
	for g := 0; g < generations; g++ {
		nodes := make([]*Node, cohort)
		for i := range nodes {
			n, err := New(Config{
				ID:   fmt.Sprintf("n%d", i), // recycled every generation
				Seed: int64(g*cohort + i),
			}, env, mobility.Static{P: mobility.Point{X: float64(i % 80), Y: float64(g)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.AttachBus(b, "nc0"); err != nil {
				t.Fatal(err)
			}
			nodes[i] = n
		}
		// A sample of this generation's nodes must actually serve.
		for _, i := range []int{0, cohort / 2, cohort - 1} {
			var rep FieldReading
			if err := callWithin(b, MeasureCall("nc0", nodes[i].ID, sensor.Temperature, &rep), 2*time.Second); err != nil {
				t.Fatalf("generation %d node %d: %v", g, i, err)
			}
			if rep.NodeID != nodes[i].ID {
				t.Fatalf("generation %d: reply from %q, want %q", g, rep.NodeID, nodes[i].ID)
			}
		}
		for _, n := range nodes {
			n.Detach()
			n.Detach() // idempotent: the churn driver may double-reap
		}
	}
}

// TestRecycledIDFreshDedupWindow pins the recycling contract from the
// fleet layer: a node attached under a recycled ID must start with an
// empty reply-topic dedup window. The first node sees a command twice
// and suppresses the duplicate; a successor node with the same ID must
// serve a command carrying that same (stale) reply-to key, not inherit
// the predecessor's suppression state.
func TestRecycledIDFreshDedupWindow(t *testing.T) {
	testutil.CheckGoroutines(t)
	obs.Enable()
	defer obs.Disable()
	dupCounter := obs.GetCounter("node.bus.duplicates")

	b := bus.New()
	defer b.Close()
	env := fakeEnv{value: 9}
	mob := mobility.Static{P: mobility.Point{X: 10, Y: 10}}

	n1, err := New(Config{ID: "recycled", Seed: 1}, env, mob)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.AttachBus(b, "nc0"); err != nil {
		t.Fatal(err)
	}

	const replyTo = "churn/reply/stale-key"
	sub, err := b.Subscribe(replyTo, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	body := MeasureRequest{Kind: sensor.Temperature.String()}
	topic := MeasureTopic("nc0", "recycled")

	publishCommand(t, b, topic, replyTo, body)
	awaitReply(t, sub, "first command")

	// Same reply-to again: the first node's window suppresses it.
	dupBefore := dupCounter.Value()
	publishCommand(t, b, topic, replyTo, body)
	deadline := time.Now().Add(2 * time.Second)
	for dupCounter.Value() == dupBefore {
		if time.Now().After(deadline) {
			t.Fatal("duplicate command was not suppressed by the serving node")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-sub.C:
		t.Fatal("suppressed duplicate still produced a reply")
	default:
	}

	// Recycle the ID: successor must serve the stale key afresh.
	n1.Detach()
	n2, err := New(Config{ID: "recycled", Seed: 2}, env, mob)
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.AttachBus(b, "nc0"); err != nil {
		t.Fatal(err)
	}
	defer n2.Detach()
	publishCommand(t, b, topic, replyTo, body)
	msg := awaitReply(t, sub, "command to recycled ID")
	var reading FieldReading
	if err := json.Unmarshal(msg.Payload, &reading); err != nil {
		t.Fatal(err)
	}
	if reading.NodeID != "recycled" {
		t.Fatalf("reply from %q, want the recycled node", reading.NodeID)
	}
}

// TestAttachBusFailureLeavesNoState: attaching to a closed bus fails,
// and the failure is clean — no subscriptions, no goroutines, and the
// node remains attachable to a healthy bus afterwards.
func TestAttachBusFailureLeavesNoState(t *testing.T) {
	testutil.CheckGoroutines(t)
	n := newTestNode(t, "n0")

	dead := bus.New()
	dead.Close()
	if err := n.AttachBus(dead, "nc0"); err == nil {
		t.Fatal("attach to a closed bus succeeded")
	}
	n.Detach() // must be a no-op after a failed attach

	b := bus.New()
	defer b.Close()
	if err := n.AttachBus(b, "nc0"); err != nil {
		t.Fatalf("re-attach after failed attach: %v", err)
	}
	defer n.Detach()
	var rep FieldReading
	if err := callWithin(b, MeasureCall("nc0", "n0", sensor.Temperature, &rep), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if rep.NodeID != "n0" {
		t.Fatalf("measure reply %+v", rep)
	}
}
