// Topic construction helpers. Every topic string that crosses a
// component boundary (broker ↔ node ↔ cloud ↔ serve) is built here, so
// the protocol's segment layout lives in exactly one file. The node's
// measure command pairs its topic with its reply type in internal/node
// (node.MeasureCall). A request builds no topic string: a broker builds
// each node's measure topic when it registers the node, and a scatter
// writes each reply topic into its request's envelope (appendInboxTopic).
//
// Layout (NC = NanoCloud/broker ID):
//
//	<nc>/register              node → broker presence announcements
//	<nc>/node/<id>/measure     broker → node measure-on-demand request
//	<nc>/inbox/<s>/<id>/<k>    node → broker reply to request k of the
//	                           broker's scatter s (one subscription,
//	                           <nc>/inbox/<s>/#, hears them all)
package bus

import "strconv"

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

// inboxSegment sits between the NanoCloud's ID and the scatter's number.
const inboxSegment = "/inbox/"

// InboxPattern returns the subscription pattern covering every reply to
// one scatter: call is the scatter's number on its bus.
func InboxPattern(ncID, call string) string {
	return ncID + inboxSegment + call + "/#"
}

// appendInboxTopic appends the reply topic of attempt k of scatter call,
// <ncID>/inbox/<call>/<nodeID>/<k> (no nodeID segment when it is empty),
// escaped for a JSON string segment by segment, which the plain ASCII
// separators make equal to escaping it whole. k, unique per attempt (a
// node's duplicate-command window keys on it), comes last for the
// requester to read back; nodeID lets a transport attribute traffic.
func appendInboxTopic(dst []byte, ncID, call, nodeID string, k int) []byte {
	dst = append(appendJSONText(dst, ncID), inboxSegment...)
	dst = append(appendJSONText(dst, call), '/')
	if nodeID != "" {
		dst = append(appendJSONText(dst, nodeID), '/')
	}
	return strconv.AppendInt(dst, int64(k), 10)
}
