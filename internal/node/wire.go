package node

import (
	"strconv"

	"repro/internal/bus"
)

// Hand-written JSON codecs for the measure protocol's messages (see
// internal/bus/wirejson.go for the two rules they keep). AppendJSON
// appends exactly what json.Marshal writes for the value. ParseJSON
// accepts only that canonical form with plain-ASCII strings, stores the
// value and reports true; on anything else it leaves the receiver as it
// was and reports false, and the caller decodes with json.Unmarshal.

// AppendJSON appends the request as json.Marshal encodes it.
func (r MeasureRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"kind":`...)
	dst = bus.AppendJSONString(dst, r.Kind)
	return append(dst, '}'), nil
}

// ParseJSON decodes the canonical encoding of a MeasureRequest.
func (r *MeasureRequest) ParseJSON(src []byte) bool {
	s := bus.NewJSONScanner(src)
	s.Lit(`{"kind":`)
	kind := s.Str()
	s.Lit(`}`)
	if !s.Done() {
		return false
	}
	r.Kind = kind
	return true
}

// AppendJSON appends the reading as json.Marshal encodes it, or fails
// as json.Marshal does on a NaN or infinite value or sigma.
func (r FieldReading) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"nodeId":`...)
	dst = bus.AppendJSONString(dst, r.NodeID)
	dst = append(dst, `,"gridIdx":`...)
	dst = strconv.AppendInt(dst, int64(r.GridIdx), 10)
	dst = append(dst, `,"value":`...)
	dst, err := bus.AppendJSONFloat(dst, r.Value)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `,"sigma":`...)
	if dst, err = bus.AppendJSONFloat(dst, r.Sigma); err != nil {
		return nil, err
	}
	dst = append(dst, `,"denied":`...)
	dst = strconv.AppendBool(dst, r.Denied)
	return append(dst, '}'), nil
}

// ParseJSON decodes the canonical encoding of a FieldReading.
func (r *FieldReading) ParseJSON(src []byte) bool {
	var v FieldReading
	s := bus.NewJSONScanner(src)
	s.Lit(`{"nodeId":`)
	v.NodeID = s.Str()
	s.Lit(`,"gridIdx":`)
	v.GridIdx = s.Int()
	s.Lit(`,"value":`)
	v.Value = s.Float()
	s.Lit(`,"sigma":`)
	v.Sigma = s.Float()
	s.Lit(`,"denied":`)
	v.Denied = s.Bool()
	s.Lit(`}`)
	if !s.Done() {
		return false
	}
	*r = v
	return true
}

// AppendJSON appends the reply as json.Marshal encodes it.
func (r PositionReply) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"nodeId":`...)
	dst = bus.AppendJSONString(dst, r.NodeID)
	dst = append(dst, `,"gridIdx":`...)
	dst = strconv.AppendInt(dst, int64(r.GridIdx), 10)
	return append(dst, '}'), nil
}

// ParseJSON decodes the canonical encoding of a PositionReply.
func (r *PositionReply) ParseJSON(src []byte) bool {
	var v PositionReply
	s := bus.NewJSONScanner(src)
	s.Lit(`{"nodeId":`)
	v.NodeID = s.Str()
	s.Lit(`,"gridIdx":`)
	v.GridIdx = s.Int()
	s.Lit(`}`)
	if !s.Done() {
		return false
	}
	*r = v
	return true
}
