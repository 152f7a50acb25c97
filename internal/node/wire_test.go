package node

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/mobility"
	"repro/internal/sensor"
)

// wireEdgeFloats are the floats where encoding/json's formatting turns:
// signed zero, the 1e-6 and 1e21 switches to exponent form and the
// neighbours on either side, subnormals, the extremes, and the values
// json.Marshal refuses.
var wireEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 0.2, 1.0 / 3, 21.5, 123456789.125, 1e20, -1e20,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-9, 1e-10,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1e100,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 4.9e-310,
	math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// wireEdgeStrings cover every escape json.Marshal writes: the quote and
// backslash, the HTML-sensitive characters, control bytes (short and
// \u00XX forms), DEL, U+2028/U+2029 and invalid UTF-8.
var wireEdgeStrings = []string{
	"", "n1", "lc0/nc0/n3", "temperature", `<>&"\`, "a<b", "x&y",
	"\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "\u2028\u2029", "line\u2028sep",
	"\xff", "a\xc3", "\xed\xa0\x80", "\ufffd", "h\u00e9llo", "\u65e5\u672c", "\U0001F600",
}

var wireEdgeInts = []int{0, 1, -1, 7, 1023, -42, math.MaxInt32, math.MaxInt, math.MinInt}

// wireMessages builds every message type from one string, int, pair of
// floats and bool.
func wireMessages(s string, i int, f, g float64, b bool) []reply {
	return []reply{
		MeasureRequest{Kind: s},
		FieldReading{NodeID: s, GridIdx: i, Value: f, Sigma: g, Denied: b},
		PositionReply{NodeID: s, GridIdx: i},
	}
}

// parserFor returns a fresh decode target of m's type.
func parserFor(m reply) interface{ ParseJSON([]byte) bool } {
	switch m.(type) {
	case MeasureRequest:
		return new(MeasureRequest)
	case FieldReading:
		return new(FieldReading)
	default:
		return new(PositionReply)
	}
}

// plainASCII reports whether json.Marshal writes s unescaped.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// checkWireMessage pins AppendJSON to json.Marshal (bytes, or the
// error), also after a prefix, and that ParseJSON takes the canonical
// encoding back to the same value whenever its strings are plain ASCII.
func checkWireMessage(t *testing.T, m reply, plain bool) {
	t.Helper()
	want, wantErr := json.Marshal(m)
	got, err := m.AppendJSON(nil)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("%#v: AppendJSON = %q, %v; json.Marshal = %q, %v", m, got, err, want, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%#v: AppendJSON error %q, json.Marshal error %q", m, err, wantErr)
		}
		return
	}
	if prefixed, _ := m.AppendJSON([]byte("xy")); string(prefixed) != "xy"+string(want) {
		t.Fatalf("%#v: AppendJSON after a prefix = %q", m, prefixed)
	}
	p := parserFor(m)
	if !p.ParseJSON(want) {
		if plain {
			t.Fatalf("%#v: ParseJSON rejected its canonical encoding %q", m, want)
		}
		return
	}
	if back := reflect.ValueOf(p).Elem().Interface(); !reflect.DeepEqual(back, m) || !bytes.Equal(mustMarshal(t, back), want) {
		t.Fatalf("%#v: ParseJSON(%q) = %#v", m, want, back)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWireCodecMatchesEncodingJSON checks the four node messages' codecs
// against encoding/json on a table of edge values and on seeded random
// ones: AppendJSON writes json.Marshal's bytes or fails with its error,
// and ParseJSON reads every canonical encoding back to the same value.
func TestWireCodecMatchesEncodingJSON(t *testing.T) {
	for _, s := range wireEdgeStrings {
		for _, f := range wireEdgeFloats {
			for _, m := range wireMessages(s, 1023, f, 0.25, false) {
				checkWireMessage(t, m, plainASCII(s))
			}
			for _, m := range wireMessages(s, -7, 0.5, f, true) {
				checkWireMessage(t, m, plainASCII(s))
			}
		}
		for _, i := range wireEdgeInts {
			for _, m := range wireMessages(s, i, 1, 2, false) {
				checkWireMessage(t, m, plainASCII(s))
			}
		}
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20000; trial++ {
		var str []byte
		for n := rng.Intn(12); n > 0; n-- {
			if rng.Intn(4) == 0 {
				str = append(str, byte(rng.Intn(256))) // any byte, escapes and bad UTF-8 included
			} else {
				str = append(str, byte(' '+rng.Intn(95)))
			}
		}
		randFloat := func() float64 {
			switch rng.Intn(3) {
			case 0:
				return math.Float64frombits(rng.Uint64()) // every exponent, NaN and Inf included
			case 1:
				return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
			default:
				return float64(rng.Intn(2000)-1000) / 8
			}
		}
		i := int(rng.Uint64())
		if rng.Intn(2) == 0 {
			i = rng.Intn(4096) - 2048
		}
		for _, m := range wireMessages(string(str), i, randFloat(), randFloat(), rng.Intn(2) == 0) {
			checkWireMessage(t, m, plainASCII(string(str)))
		}
	}

	// A real exchange takes the reflection-free paths: the measure command
	// and every reply. Position sends "{}", not a canonical
	// MeasureRequest, so its body falls back to json.Unmarshal.
	for _, msg := range captureWireMessages(t) {
		if strings.HasSuffix(msg.Topic, "/measure") {
			_, body, ok := bus.ParseEnvelope(msg.Payload)
			if !ok || !new(MeasureRequest).ParseJSON(body) {
				t.Errorf("measure command %q not canonical", msg.Payload)
			}
		} else if strings.Contains(msg.Topic, "/inbox/") {
			if !new(FieldReading).ParseJSON(msg.Payload) && !new(PositionReply).ParseJSON(msg.Payload) {
				t.Errorf("reply %q not canonical", msg.Payload)
			}
		}
	}
}

// captureWireMessages returns every message of a real exchange: the
// measure and position requests a Scatter publishes to a node
// and the replies node.serve publishes back.
func captureWireMessages(tb testing.TB) []bus.Message {
	n, err := New(Config{ID: "n7", Seed: 42, Profile: sensor.ProfileMidrange},
		fakeEnv{value: 21.5}, mobility.Static{P: mobility.Point{X: 35, Y: 15}})
	if err != nil {
		tb.Fatal(err)
	}
	b := bus.New()
	defer b.Close()
	tap, err := b.Subscribe("#", 64)
	if err != nil {
		tb.Fatal(err)
	}
	if err := n.AttachBus(b, "nc0"); err != nil {
		tb.Fatal(err)
	}
	defer n.Detach()
	var (
		reading  FieldReading
		position PositionReply
	)
	calls := []bus.Call{
		MeasureCall("nc0", n.ID, sensor.Temperature, &reading),
		PositionCall("nc0", n.ID, &position),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	bus.Scatter(ctx, b, "nc0", calls, bus.RetryPolicy{Attempts: 1})
	var out []bus.Message
	for _, c := range calls {
		if c.Err != nil {
			tb.Fatal(c.Err)
		}
	}
	for len(tap.C) > 0 {
		out = append(out, <-tap.C)
	}
	if len(out) != 2*len(calls) {
		tb.Fatalf("captured %d payloads, want %d", len(out), 2*len(calls))
	}
	return out
}

// FuzzWireCodec checks the parsers against encoding/json on arbitrary
// bytes. Whenever a ParseJSON accepts, json.Unmarshal succeeds with an
// equal value and AppendJSON of that value reproduces the input; when it
// rejects, its target is untouched. The envelope decoders return what
// json.Unmarshal returns, error or value.
func FuzzWireCodec(f *testing.F) {
	for _, msg := range captureWireMessages(f) {
		f.Add(msg.Payload)
	}
	for _, s := range []string{
		`{"kind":"temperature"}`, `{"kind":""}`, `{}`, `null`, `{"Kind":"gps"}`, `{"kind":"ab"}`,
		`{"kind":"<"}`, `{"kind":"x"} `, ` {"kind":"x"}`, `{"kind":"x","kind":"y"}`, `{"kind":1}`,
		`{"nodeId":"n1","gridIdx":0,"value":-0,"sigma":1e-7,"denied":false}`,
		`{"nodeId":"n1","gridIdx":-0,"value":0,"sigma":0,"denied":false}`,
		`{"nodeId":"n1","gridIdx":01,"value":0,"sigma":0,"denied":false}`,
		`{"nodeId":"n1","gridIdx":1.0,"value":0,"sigma":0,"denied":false}`,
		`{"nodeId":"n1","gridIdx":9223372036854775807,"value":1.0,"sigma":1E5,"denied":true}`,
		`{"nodeId":"n1","gridIdx":9223372036854775808,"value":1,"sigma":1,"denied":true}`,
		`{"nodeId":"n1","gridIdx":-9223372036854775808,"value":1e400,"sigma":1e-400,"denied":true}`,
		`{"nodeId":"n1","gridIdx":12345678901234567890,"value":+1,"sigma":.5,"denied":null}`,
		`{"nodeId":"n1","gridIdx":3,"value":1e+21,"sigma":1e-07,"denied":false}`,
		`{"nodeId":"n1","gridIdx":3,"value":1e21,"sigma":0.000001,"denied":false}`,
		`{"nodeId":"n1","gridIdx":3,"batteryFrac":0.5,"energyMJ":12.25}`,
		`{"nodeId":"n1","gridIdx":3}`, `{"nodeId":"n1","gridIdx":3,"extra":1}`,
		`{"gridIdx":3,"nodeId":"n1"}`, `{"nodeId":"n1","gridIdx":-3}`,
		`{"replyTo":"nc0/inbox/1/n1/0","body":{"kind":"gps"}}`,
		`{"replyTo":"nc0/inbox/1/n1/0","body":{}}`,
		`{"replyTo":"a","body": {"kind":"gps"}}`, `{"replyTo":"a","body":{"kind":"gps"} }`,
		`{"replyTo":"a","body":{},"body":{"kind":"gps"}}`, `{"replyTo":"a","body":{"kind":"gps"},"body":{}}`,
		`{"replyTo":"a","body":}`, `{"replyTo":"a","body":{"kind":"gps"}`, `{"replyTo":"a\/b","body":1}`,
		`{"body":{"kind":"gps"},"replyTo":"a"}`, `{"replyTo":"a","body":{"kind":"gps"},"replyTo":"b"}`,
		`{"replyTo":"a","body":[1,2]}`, `{"replyTo":"a","body":"x"}`, `{"replyTo":"a","body":nul}`,
		`{"replyTo":"a","Body":{"kind":"x"},"body":{"kind":"y"}}`, `{"replyTo":"a","body":{"kind":"gps"}}}`,
		``, `{`, `}`, `{"replyTo":"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, m := range wireMessages("untouched", 99, 9.5, 8.5, true) {
			p := parserFor(m)
			reflect.ValueOf(p).Elem().Set(reflect.ValueOf(m)) // a rejecting parse must leave m there
			if !p.ParseJSON(src) {
				if got := reflect.ValueOf(p).Elem().Interface(); !reflect.DeepEqual(got, m) {
					t.Fatalf("%T.ParseJSON(%q) rejected but wrote %#v", p, src, got)
				}
				continue
			}
			v := reflect.ValueOf(p).Elem().Interface().(reply)
			w := reflect.New(reflect.TypeOf(v))
			if err := json.Unmarshal(src, w.Interface()); err != nil {
				t.Fatalf("%T.ParseJSON(%q) accepted, json.Unmarshal: %v", p, src, err)
			}
			if !reflect.DeepEqual(w.Elem().Interface(), v) || !bytes.Equal(mustMarshal(t, w.Elem().Interface()), src) {
				t.Fatalf("%T.ParseJSON(%q) = %#v, json.Unmarshal = %#v", p, src, v, w.Elem().Interface())
			}
			if back, err := v.AppendJSON(nil); err != nil || !bytes.Equal(back, src) {
				t.Fatalf("%T.ParseJSON(%q) = %#v, which AppendJSON writes as %q, %v", p, src, v, back, err)
			}
		}

		var env struct {
			ReplyTo string          `json:"replyTo"`
			Body    json.RawMessage `json:"body"`
		}
		wantErr := json.Unmarshal(src, &env)
		replyTo, body, err := bus.DecodeEnvelope(src)
		if (err != nil) != (wantErr != nil) || (err == nil && (replyTo != env.ReplyTo || !bytes.Equal(body, env.Body))) {
			t.Fatalf("DecodeEnvelope(%q) = %q, %q, %v; json.Unmarshal = %q, %q, %v", src, replyTo, body, err, env.ReplyTo, env.Body, wantErr)
		}

		var want incoming
		wantErr = json.Unmarshal(src, &want)
		cmd, err := decodeCommand(src)
		if (err != nil) != (wantErr != nil) || (err == nil && cmd != want) {
			t.Fatalf("decodeCommand(%q) = %#v, %v; json.Unmarshal = %#v, %v", src, cmd, err, want, wantErr)
		}
	})
}
