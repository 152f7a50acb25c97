package bus

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The measure protocol's messages (the request envelope and the node
// messages inside it) have hand-written JSON codecs, because the
// reflection behind encoding/json was most of a gather's CPU. The wire
// bytes are exactly encoding/json's. Two rules keep every outcome
// identical to it:
//
//   - an encoder (appendEnvelope, AppendJSON) emits exactly what
//     json.Marshal emits, and fails where json.Marshal fails;
//   - a parser (ParseEnvelope, ParseJSON) accepts only the canonical
//     form (the bytes its encoder would write back, and only for
//     strings of plain ASCII), which json.Unmarshal decodes to the same
//     value. On anything else it reports false and the caller decodes
//     with json.Unmarshal into the same target, exactly as before.

// jsonParser is a reply destination with its own decoder: ParseJSON
// reports whether src is the canonical encoding of a value, and stores
// the value only when it is.
type jsonParser interface {
	ParseJSON(src []byte) bool
}

// unmarshal decodes src into v with v's own parser when it has one and
// src is canonical, else with json.Unmarshal.
func unmarshal(src []byte, v any) error {
	if p, ok := v.(jsonParser); ok && p.ParseJSON(src) {
		return nil
	}
	return json.Unmarshal(src, v)
}

// envelope wraps a request payload with the topic the responder should
// reply on: a request's wire form on every transport.
type envelope struct {
	ReplyTo string          `json:"replyTo"`
	Body    json.RawMessage `json:"body"`
}

// Envelope framing, around the reply topic and the body.
const (
	envelopeHead = `{"replyTo":"`
	envelopeMid  = `","body":`
)

// appendEnvelope appends json.Marshal(envelope{topic, body}), topic
// being the reply topic of attempt k of a scatter (appendInboxTopic).
// body must be compact JSON as json.Marshal writes it (NewCall), which
// json.Marshal copies into the envelope unchanged.
func appendEnvelope(dst []byte, root, call, peer string, k int, body []byte) []byte {
	dst = appendInboxTopic(append(dst, envelopeHead...), root, call, peer, k)
	dst = append(dst, envelopeMid...)
	dst = append(dst, body...)
	return append(dst, '}')
}

// ParseEnvelope splits a request envelope in its canonical form, the
// bytes the requester writes for a reply topic of plain ASCII, into the
// reply topic and the body, which aliases src. It reports false for any
// other input. It does not check that body is one JSON value: decode
// body with a parser that does (a ParseJSON method), or use
// DecodeEnvelope.
func ParseEnvelope(src []byte) (replyTo string, body []byte, ok bool) {
	if !hasPrefix(src, envelopeHead) || src[len(src)-1] != '}' {
		return "", nil, false
	}
	end := len(envelopeHead)
	for end < len(src) && plainByte(src[end]) {
		end++
	}
	if !hasPrefix(src[end:], envelopeMid) || end+len(envelopeMid) >= len(src)-1 {
		return "", nil, false
	}
	return string(src[len(envelopeHead):end]), src[end+len(envelopeMid) : len(src)-1], true
}

// DecodeEnvelope decodes a request envelope exactly as json.Unmarshal
// would, without reflection when src is canonical. The body is the
// caller's own copy.
func DecodeEnvelope(src []byte) (replyTo string, body []byte, err error) {
	if replyTo, body, ok := ParseEnvelope(src); ok && !jsonSpace(body[0]) && !jsonSpace(body[len(body)-1]) && json.Valid(body) {
		return replyTo, bytes.Clone(body), nil
	}
	var env envelope
	err = json.Unmarshal(src, &env)
	return env.ReplyTo, env.Body, err
}

// hasPrefix is bytes.HasPrefix for a string prefix, without converting it.
func hasPrefix(b []byte, prefix string) bool {
	return len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

func jsonSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// plainByte reports whether c stands for itself inside a string that
// json.Marshal writes: printable ASCII other than the quote, the
// backslash and the three characters it escapes for HTML (<, >, &).
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// AppendJSONString appends s quoted as json.Marshal quotes a string:
// HTML-sensitive characters, control bytes, U+2028 and U+2029 escaped,
// and each byte of invalid UTF-8 replaced by \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	return append(appendJSONText(append(dst, '"'), s), '"')
}

// appendJSONText appends s escaped as AppendJSONString escapes it,
// without the quotes.
func appendJSONText(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plainByte(c) || c == 0x7f {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// AppendJSONFloat appends f formatted as json.Marshal formats a float64
// (shortest round-trip digits, exponent form below 1e-6 and from 1e21),
// or returns json.Marshal's error for NaN and ±Inf.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as json.Marshal writes it.
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// JSONScanner reads a value in canonical form, one token at a time, for
// a ParseJSON method: the exact punctuation and keys (Lit), strings of
// plain ASCII with no escapes (Str), ints and floats exactly as
// json.Marshal writes them (Int, Float) and booleans (Bool). The first mismatch fails
// every later read, and Done reports whether every read matched and the
// input is used up; a token it accepts decodes under json.Unmarshal to
// the value it returned.
type JSONScanner struct {
	src []byte
	pos int
	bad bool
}

// NewJSONScanner returns a scanner at the start of src.
func NewJSONScanner(src []byte) JSONScanner {
	return JSONScanner{src: src}
}

// Lit consumes exactly lit.
func (s *JSONScanner) Lit(lit string) {
	if s.bad || !hasPrefix(s.src[s.pos:], lit) {
		s.bad = true
		return
	}
	s.pos += len(lit)
}

// Str consumes a quoted string of plain ASCII into *dst, which keeps
// its string when it already holds that text: no allocation then.
func (s *JSONScanner) Str(dst *string) {
	s.Lit(`"`)
	start := s.pos
	for s.pos < len(s.src) && plainByte(s.src[s.pos]) {
		s.pos++
	}
	text := s.src[start:s.pos]
	s.Lit(`"`)
	if !s.bad && string(text) != *dst {
		*dst = string(text)
	}
}

// number consumes the run of bytes a JSON number is written with.
func (s *JSONScanner) number() []byte {
	start := s.pos
	for s.pos < len(s.src) && numberByte(s.src[s.pos]) {
		s.pos++
	}
	return s.src[start:s.pos]
}

func numberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e'
}

// Int consumes an int written as json.Marshal writes it.
func (s *JSONScanner) Int() int {
	if s.bad {
		return 0
	}
	tok := s.number()
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	var buf [24]byte
	if err != nil || !bytes.Equal(strconv.AppendInt(buf[:0], n, 10), tok) {
		s.bad = true
		return 0
	}
	return int(n)
}

// Float consumes a float64 written as AppendJSONFloat writes it.
func (s *JSONScanner) Float() float64 {
	if s.bad {
		return 0
	}
	tok := s.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	if err == nil {
		var canon []byte
		if canon, err = AppendJSONFloat(buf[:0], f); err == nil && !bytes.Equal(canon, tok) {
			err = strconv.ErrSyntax
		}
	}
	if err != nil {
		s.bad = true
		return 0
	}
	return f
}

// Bool consumes true or false.
func (s *JSONScanner) Bool() bool {
	if !s.bad && hasPrefix(s.src[s.pos:], "true") {
		s.pos += len("true")
		return true
	}
	s.Lit("false")
	return false
}

// Done reports whether every read matched and nothing is left.
func (s *JSONScanner) Done() bool {
	return !s.bad && s.pos == len(s.src)
}
