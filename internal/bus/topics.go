// Topic construction helpers. Every topic string that crosses a
// component boundary (broker ↔ node ↔ cloud ↔ serve) is built here, so
// the protocol's segment layout lives in exactly one file. Keeping the
// helpers as plain string concatenation (no fmt.Sprintf) also lets the
// sdlint topicflow analyzer resolve every call site to an exact topic
// shape instead of an abstract wildcard.
//
// Layout (NC = NanoCloud/broker ID):
//
//	<nc>/register              node → broker presence announcements
//	<nc>/node/<id>/measure     broker → node measure-on-demand request
//	<nc>/node/<id>/position    broker → node position query
//	<nc>/node/<id>/status      broker → node status/battery query
//	<nc>/inbox/<s>/<id>/<k>    node → broker reply to request k of the
//	                           broker's scatter s (one subscription,
//	                           <nc>/inbox/<s>/#, hears them all)
//	<nc>/ctx/<id>              retained per-node context snapshots
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

// NodePositionTopic returns a node's position-query request topic.
func NodePositionTopic(ncID, nodeID string) string {
	return ncID + "/node/" + nodeID + "/position"
}

// NodeStatusTopic returns a node's status-query request topic.
func NodeStatusTopic(ncID, nodeID string) string {
	return ncID + "/node/" + nodeID + "/status"
}

// NodeCommandPattern returns the subscription pattern covering every
// command topic addressed to one node (measure, position, status and
// any future command segment), for transports that forward a node's
// whole command namespace at once.
func NodeCommandPattern(ncID, nodeID string) string {
	return ncID + "/node/" + nodeID + "/#"
}

// NodeContextTopic returns the retained topic carrying a node's latest
// context snapshot within a broker's namespace.
func NodeContextTopic(brokerID, nodeID string) string {
	return brokerID + "/ctx/" + nodeID
}

// InboxPattern returns the subscription pattern covering every reply to
// one scatter: call is the scatter's process-wide number.
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
