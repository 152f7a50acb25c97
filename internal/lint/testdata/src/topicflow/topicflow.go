// Package topicflow is the golden fixture for the topicflow analyzer.
// It carries its own miniature bus API — the root functions are wired up
// by FuncID in lint_test.go, exactly the way project.go wires the real
// middleware's — plus one example of every protocol defect the analyzer
// reports, and the matched pairs that must stay silent.
package topicflow

import (
	"encoding/json"
	"fmt"
)

// --- protocol roots (bodies are never endpoints) ----------------------------

type Bus struct{}

func (b *Bus) Publish(topic string, payload []byte) error { return nil }
func (b *Bus) Subscribe(pattern string, buffer int) error { return nil }

func Request(b *Bus, topic string, body, out any) error { return nil }

func Respond(b *Bus, pattern string, fn func(topic string, body []byte) (any, error)) error {
	return nil
}

// RespondTyped decodes each request body into a MeasureReq before it
// calls fn: the handler's parameter type, not an Unmarshal in its body,
// is the decode type.
func RespondTyped(b *Bus, pattern string, fn func(MeasureReq) (any, error)) error { return nil }

// --- payload types ----------------------------------------------------------

type MeasureReq struct{ Kind int }
type MeasureReply struct{ Value float64 }
type StatusReply struct{ Up bool }
type BadBody struct{ X int }

// --- matched pairs: no findings ---------------------------------------------

// CleanPair: an unresolved parameter degrades to an abstract segment,
// which must still match the same parameter on the other side.
func CleanPair(b *Bus, id string) {
	_ = b.Subscribe("telemetry/"+id+"/#", 8)
	_ = b.Publish("telemetry/"+id+"/cpu", nil)
}

// SprintfPair exercises the format-string shape abstraction: %d becomes
// an abstract segment.
func SprintfPair(b *Bus, zone int) {
	_ = b.Subscribe(fmt.Sprintf("zone/%d/#", zone), 4)
	_ = b.Publish(fmt.Sprintf("zone/%d/load", zone), nil)
}

// announceTopic exercises module-local constant folding.
const announceTopic = "cluster/announce"

func ConstPair(b *Bus) {
	_ = b.Subscribe(announceTopic, 1)
	_ = b.Publish(announceTopic, nil)
}

// CleanRequest/CleanResponder: a request whose body and reply types both
// agree with the responder it reaches.
func CleanRequest(b *Bus, id string) {
	var out MeasureReply
	_ = Request(b, "node/"+id+"/measure", MeasureReq{Kind: 1}, &out)
}

func CleanResponder(b *Bus) {
	_ = Respond(b, "node/+/measure", handleMeasure)
}

func handleMeasure(topic string, body []byte) (any, error) {
	var req MeasureReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return MeasureReply{Value: float64(req.Kind)}, nil
}

// --- orphan publishes -------------------------------------------------------

func Orphan(b *Bus) {
	_ = b.Publish("lost/event", nil) // want `publish on "lost/event" matches no subscription or responder pattern \(orphan publish\)`
}

// publishVia exercises parametric lifting: the endpoint is reported at
// the caller that supplies the topic, not here.
func publishVia(b *Bus, topic string) { _ = b.Publish(topic, nil) }

func LiftedOrphan(b *Bus) {
	publishVia(b, "lifted/orphan") // want `publish on "lifted/orphan" matches no subscription or responder pattern \(orphan publish\)`
}

// --- unanswered request -----------------------------------------------------

func Unanswered(b *Bus) {
	var out StatusReply
	_ = Request(b, "ghost/status", struct{}{}, &out) // want `request on "ghost/status" has no matching responder or subscription: it can only time out \(unanswered request\)`
}

// --- statically invalid topics and patterns ---------------------------------

func Invalid(b *Bus) {
	_ = b.Subscribe("a//b", 1)  // want `statically invalid subscribe pattern "a//b": empty segment`
	_ = b.Subscribe("a/#/b", 1) // want `statically invalid subscribe pattern "a/#/b": "#" before the final segment`
	_ = b.Publish("a/+/b", nil) // want `statically invalid publish topic "a/\+/b": wildcard segment in a concrete topic`
}

// --- payload mismatch -------------------------------------------------------

// MismatchedRequest reaches handleMeasure (the pattern matches) but
// sends the wrong body type and decodes the reply into the wrong type.
func MismatchedRequest(b *Bus, id string) {
	var out StatusReply
	_ = Request(b, "node/"+id+"/measure", BadBody{X: 2}, &out) // want `request on "node/\+/measure" sends body type topicflow.BadBody but the responder at topicflow.go:\d+ decodes topicflow.MeasureReq \(payload mismatch\)` `request on "node/\+/measure" decodes the reply into topicflow.StatusReply but the responder at topicflow.go:\d+ replies with topicflow.MeasureReply \(payload mismatch\)`
}

// TypedResponder's handler never sees bytes; its parameter still pins
// the body type a request must send.
func TypedResponder(b *Bus) {
	_ = RespondTyped(b, "typed/measure", handleTyped)
}

func handleTyped(req MeasureReq) (any, error) { return MeasureReply{Value: float64(req.Kind)}, nil }

func TypedRequests(b *Bus) {
	var out MeasureReply
	_ = Request(b, "typed/measure", MeasureReq{Kind: 3}, &out)
	_ = Request(b, "typed/measure", BadBody{X: 3}, &out) // want `request on "typed/measure" sends body type topicflow.BadBody but the responder at topicflow.go:\d+ decodes topicflow.MeasureReq \(payload mismatch\)`
}

// --- unrequested responder --------------------------------------------------

func DeadResponder(b *Bus) {
	_ = Respond(b, "dead/end", handleStatus) // want `responder on "dead/end" is targeted by no request or publish \(unrequested responder\)`
}

func handleStatus(topic string, body []byte) (any, error) { return StatusReply{Up: true}, nil }

// --- audited suppression ----------------------------------------------------

func Suppressed(b *Bus) {
	//lint:ignore topicflow fixture demonstrates the audited escape hatch
	_ = b.Publish("suppressed/orphan", nil)
}
