package bus

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestEnvelopeMatchesEncodingJSON pins appendEnvelope to json.Marshal of
// the envelope for reply topics that need every kind of escape and for
// bodies as marshal writes them, and checks that ParseEnvelope and
// DecodeEnvelope take a canonical envelope back apart.
func TestEnvelopeMatchesEncodingJSON(t *testing.T) {
	replyTos := []string{
		"", "nc0/inbox/1/0", "lc0/nc0/inbox/12/n3/7", `a<b>&"\`, "\x00\n\x7f",
		" ", "\xff", "hé",
	}
	bodies := []any{
		struct{}{}, nil, 7, -0.5, "s<>", []int{1, 2}, map[string]any{"k": []any{true, nil}},
		struct {
			N int `json:"n"`
		}{3},
	}
	for _, replyTo := range replyTos {
		for _, v := range bodies {
			body, err := marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(envelope{ReplyTo: replyTo, Body: body})
			if err != nil {
				t.Fatal(err)
			}
			got := appendEnvelope([]byte("xy"), replyTo, body)
			if string(got) != "xy"+string(want) {
				t.Fatalf("appendEnvelope(%q, %s) = %q, json.Marshal = %q", replyTo, body, got[2:], want)
			}
			rt, raw, ok := ParseEnvelope(want)
			if plain := !strings.ContainsFunc(replyTo, func(r rune) bool { return r >= 0x80 || !plainByte(byte(r)) }); ok != plain {
				t.Fatalf("ParseEnvelope(%q) ok = %v", want, ok)
			}
			if ok && (rt != replyTo || !bytes.Equal(raw, body)) {
				t.Fatalf("ParseEnvelope(%q) = %q, %q", want, rt, raw)
			}
			var env envelope
			if err := json.Unmarshal(want, &env); err != nil {
				t.Fatal(err)
			}
			rt, raw, err = DecodeEnvelope(want)
			if err != nil || rt != env.ReplyTo || !bytes.Equal(raw, body) {
				t.Fatalf("DecodeEnvelope(%q) = %q, %q, %v", want, rt, raw, err)
			}
		}
	}
}
