package bus

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// inboxTopic is the reply topic of attempt k of scatter call as the
// layout at the top of topics.go spells it.
func inboxTopic(root, call, peer string, k int) string {
	if peer == "" {
		return root + "/inbox/" + call + "/" + strconv.Itoa(k)
	}
	return root + "/inbox/" + call + "/" + peer + "/" + strconv.Itoa(k)
}

// TestEnvelopeMatchesEncodingJSON pins appendEnvelope to json.Marshal of
// the envelope whose reply topic inboxTopic spells, for roots and peers
// that need every kind of escape and for bodies as json.Marshal writes them,
// and checks that ParseEnvelope and DecodeEnvelope take a canonical
// envelope back apart.
func TestEnvelopeMatchesEncodingJSON(t *testing.T) {
	segments := []string{
		"", "nc0", "lc0/nc0", `a<b>&"\`, "\x00\n\x7f", " ", "\xff", "a\xc3", "hé", "\u2028", "日本",
	}
	bodies := []any{
		struct{}{}, nil, 7, -0.5, "s<>", []int{1, 2}, map[string]any{"k": []any{true, nil}},
		struct {
			N int `json:"n"`
		}{3},
	}
	for i, root := range segments {
		for j, peer := range segments {
			call, k := strconv.Itoa(1+i), 37*j
			replyTo := inboxTopic(root, call, peer, k)
			for _, v := range bodies {
				body, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(envelope{ReplyTo: replyTo, Body: body})
				if err != nil {
					t.Fatal(err)
				}
				got := appendEnvelope([]byte("xy"), root, call, peer, k, body)
				if string(got) != "xy"+string(want) {
					t.Fatalf("appendEnvelope(%q, %q, %q, %d, %s) = %q, json.Marshal = %q", root, call, peer, k, body, got[2:], want)
				}
				checkEnvelopeParses(t, want, replyTo, body)
			}
		}
	}
}

// checkEnvelopeParses checks that ParseEnvelope takes the canonical
// envelope want apart exactly when its reply topic is plain, and that
// DecodeEnvelope always does.
func checkEnvelopeParses(t *testing.T, want []byte, replyTo string, body []byte) {
	t.Helper()
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
	rt, raw, err := DecodeEnvelope(want)
	if err != nil || rt != env.ReplyTo || !bytes.Equal(raw, body) {
		t.Fatalf("DecodeEnvelope(%q) = %q, %q, %v", want, rt, raw, err)
	}
}
