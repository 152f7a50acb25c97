package bus

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzParseFrame hammers the TCP wire decoder with arbitrary bytes. The
// properties: parseFrame never panics, never accepts a frame the bus
// would have to reject (unknown op, invalid topic or pattern, another
// version, a body over the limit), and any frame it does accept
// re-encodes through appendFrame to the very bytes it was parsed from,
// and parses back to the same frame.
func FuzzParseFrame(f *testing.F) {
	pub := appendFrame(nil, opPub, "sense/temp/3", []byte("hello"))
	f.Add(pub)
	f.Add(appendFrame(nil, opSub, "sense/#", nil))
	f.Add(appendFrame(nil, opMsg, "sense/temp/3/reply", []byte(`{"v":1}`)))
	f.Add(pub[:frameHeader+2]) // truncated header
	pastEnd := bytes.Clone(pub)
	pastEnd[frameHeader+3] = 0xff // topic length past the end
	f.Add(pastEnd)
	version0 := bytes.Clone(pub)
	version0[frameHeader] = 0
	f.Add(version0)
	f.Add(appendFrame(nil, 9, "a", nil))                      // unknown op
	f.Add(appendFrame(nil, opPub, "bad//topic", []byte("x"))) // invalid topic
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameBody+1)) // length over 4 MiB
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := parseFrame(b)
		if err != nil {
			return
		}
		switch fr.op {
		case opPub, opMsg:
			if !ValidTopic(fr.topic) {
				t.Fatalf("accepted op %d frame with invalid topic %q", fr.op, fr.topic)
			}
		case opSub:
			if !ValidPattern(fr.topic) {
				t.Fatalf("accepted sub frame with invalid pattern %q", fr.topic)
			}
		default:
			t.Fatalf("accepted unknown op %d", fr.op)
		}
		if b[frameHeader] != frameVersion || len(b)-frameHeader > maxFrameBody {
			t.Fatalf("accepted version %d with a %d-byte body", b[frameHeader], len(b)-frameHeader)
		}
		encoded := appendFrame(nil, fr.op, fr.topic, fr.payload)
		if !bytes.Equal(encoded, b) {
			t.Fatalf("re-encoding %x gave %x", b, encoded)
		}
		rt, err := parseFrame(encoded)
		if err != nil {
			t.Fatalf("round trip rejected %x: %v", encoded, err)
		}
		if rt.op != fr.op || rt.topic != fr.topic || !bytes.Equal(rt.payload, fr.payload) {
			t.Fatalf("round trip mutated frame: %+v -> %+v", fr, rt)
		}
	})
}

// FuzzTopicMatch hammers the topic checks with arbitrary pattern/topic
// pairs. The properties: Match, ValidTopic and ValidPattern agree with
// naive strings.Split references on every input, valid or not; a valid
// topic used as its own pattern always matches itself; and "#" alone
// matches every valid topic.
func FuzzTopicMatch(f *testing.F) {
	f.Add("a/b/c", "a/b/c")
	f.Add("a/+/c", "a/b/c")
	f.Add("a/#", "a")
	f.Add("a/#", "a/b/c/d")
	f.Add("#", "x/y")
	f.Add("+/register", "nc0/register")
	f.Add("nc0/node/+/measure", "nc0/node/n3/measure")
	f.Add("a//b", "a/b")
	f.Add("a/#/b", "a/x/b")
	f.Add("+", "")
	f.Add("", "")
	f.Add("a/", "a/")
	f.Add("+a/#b", "+a/#b")
	f.Add("a/+", "a/")
	f.Add("/+/", "//")
	f.Fuzz(func(t *testing.T, pattern, topic string) {
		if got, want := Match(pattern, topic), refMatch(pattern, topic); got != want {
			t.Fatalf("Match(%q, %q) = %v, reference = %v", pattern, topic, got, want)
		}
		for _, s := range []string{pattern, topic} {
			if got, want := ValidTopic(s), refValidTopic(s); got != want {
				t.Fatalf("ValidTopic(%q) = %v, reference = %v", s, got, want)
			}
			if got, want := ValidPattern(s), refValidPattern(s); got != want {
				t.Fatalf("ValidPattern(%q) = %v, reference = %v", s, got, want)
			}
		}
		if ValidTopic(topic) {
			if !Match(topic, topic) {
				t.Fatalf("valid topic %q does not match itself", topic)
			}
			if !Match("#", topic) {
				t.Fatalf(`"#" does not match valid topic %q`, topic)
			}
		}
	})
}

// refMatch is a naive segment-list reference implementation of the
// wildcard rules: "+" one segment, trailing "#" any remainder
// (including none).
func refMatch(pattern, topic string) bool {
	ps := strings.Split(pattern, "/")
	ts := strings.Split(topic, "/")
	for i, p := range ps {
		if p == "#" {
			return true
		}
		if i >= len(ts) {
			return false
		}
		if p != "+" && p != ts[i] {
			return false
		}
	}
	return len(ps) == len(ts)
}

// refValidTopic is ValidTopic over a segment list: no segment empty, "+"
// or "#".
func refValidTopic(topic string) bool {
	for _, seg := range strings.Split(topic, "/") {
		if seg == "" || seg == "+" || seg == "#" {
			return false
		}
	}
	return true
}

// refValidPattern is ValidPattern over a segment list: no segment empty,
// and "#" only as the last.
func refValidPattern(pattern string) bool {
	segs := strings.Split(pattern, "/")
	for i, seg := range segs {
		if seg == "" || seg == "#" && i < len(segs)-1 {
			return false
		}
	}
	return true
}
