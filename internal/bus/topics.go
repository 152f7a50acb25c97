// Topic construction helpers. Every topic string that crosses a
// component boundary (broker ↔ node ↔ cloud ↔ serve) is built here, so
// the protocol's segment layout lives in exactly one file. The node's
// measure command pairs its topic with its reply type in internal/node
// (node.MeasureCall).
//
// Layout (NC = NanoCloud/broker ID):
//
//	<nc>/register              node → broker presence announcements
//	<nc>/node/<id>/measure     broker → node measure-on-demand request
//	<nc>/inbox/<s>/<id>/<k>    node → broker reply to request k of the
//	                           broker's scatter s (one subscription,
//	                           <nc>/inbox/<s>/#, hears them all)
package bus

// RegisterTopic returns the NanoCloud's node-registration topic, on
// which nodes announce themselves to the broker.
func RegisterTopic(ncID string) string {
	return ncID + "/register"
}

// NodeMeasureTopic returns a node's measure-command request topic.
func NodeMeasureTopic(ncID, nodeID string) string {
	return ncID + "/node/" + nodeID + "/measure"
}

// NodeCommandPattern returns the subscription pattern covering every
// command topic addressed to one node (measure, and any future command
// segment), for transports that forward a node's whole command
// namespace at once.
func NodeCommandPattern(ncID, nodeID string) string {
	return ncID + "/node/" + nodeID + "/#"
}

// InboxPattern returns the subscription pattern covering every reply to
// one scatter: call is the scatter's number on its bus.
func InboxPattern(ncID, call string) string {
	return ncID + "/inbox/" + call + "/#"
}

// InboxTopic returns the reply topic of one request attempt of a
// scatter. k numbers the attempt within the scatter, so the topic is
// unique per attempt (a node's duplicate-command window keys on it), and
// it comes last, where the requester reads it back. nodeID names the
// responder for transports that attribute traffic by topic; a request
// with no such peer leaves the segment out.
func InboxTopic(ncID, call, nodeID, k string) string {
	if nodeID == "" {
		return ncID + "/inbox/" + call + "/" + k
	}
	return ncID + "/inbox/" + call + "/" + nodeID + "/" + k
}
