// Package node implements the mobile-node runtime of the SenseDroid
// middleware — the "thin client" of the paper's Fig. 2. A Node owns its
// sensing probes, privacy policy, energy meter and mobility model,
// serves the broker's measure-on-demand commands over the NanoCloud bus,
// logs readings locally, and runs temporal-compressive context processing
// on-device.
package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/bus"
	"repro/internal/contextproc"
	"repro/internal/energy"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/sensor"
)

// Node observability handles (no-ops until obs.Enable).
var (
	obsMeasurements  = obs.GetCounter("node.measure.count")
	obsMeasureDenied = obs.GetCounter("node.measure.denied")
	obsServedCmds    = obs.GetCounter("node.bus.commands")
	obsDuplicateCmds = obs.GetCounter("node.bus.duplicates")
	obsContextRuns   = obs.GetCounter("node.context.runs")
)

// Environment supplies the physical ground truth a node's field sensors
// observe — in a deployment this is the real world; in this reproduction
// it is backed by a synthetic field.Field.
type Environment interface {
	// FieldValue returns the true value of the sensed quantity at a grid
	// index (column-stacked, Eq. 1 convention).
	FieldValue(kind sensor.Kind, gridIdx int) float64
	// GridDims returns the field grid dimensions (w, h).
	GridDims() (w, h int)
	// AreaDims returns the physical area dimensions the mobility models
	// roam over.
	AreaDims() (w, h float64)
}

// Config configures one node.
type Config struct {
	ID      string
	Seed    int64
	Profile sensor.DeviceProfile
	Motion  sensor.MotionScenario
	Indoor  sensor.Schedule
}

// Node is one simulated handset participating in a NanoCloud.
type Node struct {
	ID     string
	Probes *sensor.Registry
	Policy *privacy.Policy
	Meter  *energy.Meter

	env      Environment
	mobility mobility.Model
	rng      *rand.Rand

	mu  sync.Mutex
	sub *bus.Subscription // guarded by mu; the measure command's, while attached
}

// New builds a node with the full standard probe complement.
func New(cfg Config, env Environment, mob mobility.Model) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("node: empty ID")
	}
	if env == nil {
		return nil, errors.New("node: nil environment")
	}
	if mob == nil {
		return nil, errors.New("node: nil mobility model")
	}
	if cfg.Motion == "" {
		cfg.Motion = sensor.MotionIdle
	}
	if cfg.Indoor == nil {
		cfg.Indoor = sensor.AlternatingSchedule(0)
	}
	probes, err := sensor.StandardPhone(cfg.ID, cfg.Seed, cfg.Profile, cfg.Motion, cfg.Indoor)
	if err != nil {
		return nil, err
	}
	return &Node{
		ID:     cfg.ID,
		Probes: probes,
		Policy: privacy.AllowAll(sensor.Accelerometer, sensor.Temperature, sensor.GPS, sensor.WiFi, sensor.Light, sensor.Humidity, sensor.Barometer, sensor.Microphone),
		Meter:  new(energy.Meter),
		env:    env, mobility: mob,
		rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
	}, nil
}

// Move advances the node's mobility model by dt seconds.
func (n *Node) Move(dt float64) mobility.Point {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mobility.Step(dt)
}

// GridIndex returns the field grid cell the node currently occupies.
func (n *Node) GridIndex() int {
	n.mu.Lock()
	p := n.mobility.Pos()
	n.mu.Unlock()
	aw, ah := n.env.AreaDims()
	gw, gh := n.env.GridDims()
	return mobility.GridIndex(p, aw, ah, gw, gh)
}

// FieldReading is one shared field measurement.
type FieldReading struct {
	NodeID  string  `json:"nodeId"`
	GridIdx int     `json:"gridIdx"`
	Value   float64 `json:"value"`
	Sigma   float64 `json:"sigma"`  // the node's noise std-dev for GLS weighting
	Denied  bool    `json:"denied"` // privacy policy refused to share
}

// MeasureField samples the environment field with the named probe kind at
// the node's current location, charging the sample to the meter and
// applying the privacy policy. The sensing happens regardless of policy (the user sees
// their own data); only *sharing* is gated.
func (n *Node) MeasureField(kind sensor.Kind) (FieldReading, error) {
	p, ok := n.Probes.First(kind)
	if !ok {
		return FieldReading{}, fmt.Errorf("node %s: no probe of kind %q", n.ID, kind)
	}
	idx := n.GridIndex()
	sigma := p.NoiseSigma()
	n.mu.Lock()
	noise := n.rng.NormFloat64() * sigma
	n.mu.Unlock()
	truth := n.env.FieldValue(kind, idx)
	value := truth + noise
	n.Meter.ChargeSamples(kind, 1)
	obsMeasurements.Inc()
	shared, ok := n.Policy.Filter(kind, value)
	if !ok {
		obsMeasureDenied.Inc()
		return FieldReading{NodeID: n.ID, GridIdx: idx, Denied: true}, nil
	}
	return FieldReading{NodeID: n.ID, GridIdx: idx, Value: shared, Sigma: sigma}, nil
}

// --- Bus protocol -------------------------------------------------------------

// MeasureRequest is the broker's measure-on-demand command.
type MeasureRequest struct {
	Kind string `json:"kind"`
}

// MeasureTopic returns the node's measure-command topic on an NC bus.
func MeasureTopic(ncID, nodeID string) string {
	return bus.NodeMeasureTopic(ncID, nodeID)
}

// MeasureCall asks node nodeID to measure kind; the reading decodes
// into out. The broker's calls and the node's replies (Serve) both name
// FieldReading, so a reply of the wrong type on either side does not
// compile.
func MeasureCall(ncID, nodeID string, kind sensor.Kind, out *FieldReading) bus.Call {
	body, _ := MeasureRequest{Kind: kind.String()}.AppendJSON(nil) // cannot fail
	return bus.NewCall(MeasureTopic(ncID, nodeID), nodeID, body, out)
}

// AttachBus registers the node's measure command as a handler on the
// NanoCloud bus: until Detach, each command is served as Serve serves it,
// radio energy charged to the meter, on its publisher's goroutine. A
// node is attached to one bus at a time, and may AttachBus again after
// Detach — the fleet churn path recycles node IDs, and a recycled node
// must start with fresh handler state (an empty reply-topic dedup window).
func (n *Node) AttachBus(b *bus.Bus, ncID string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sub != nil {
		return fmt.Errorf("node %s: already attached", n.ID)
	}
	sv, publish := new(server), b.Publish
	sub, err := b.Handle(MeasureTopic(ncID, n.ID), func(msg bus.Message) {
		sv.mu.Lock()
		defer sv.mu.Unlock()
		n.serve(sv, msg, publish)
	})
	if err != nil {
		return err
	}
	n.sub = sub
	return nil
}

// Detach unsubscribes the bus handler and waits for its calls: when
// Detach returns, no handler will touch the node or the bus again.
// Detach is idempotent — a second call (or a call on a never-attached
// node) is a no-op — and the node may AttachBus again afterwards.
func (n *Node) Detach() {
	n.mu.Lock()
	sub := n.sub
	n.sub = nil
	n.mu.Unlock()
	if sub != nil {
		sub.Unsubscribe()
	}
}

// dedupWindow bounds the per-handler duplicate-request memory: large
// enough to cover any plausible duplicate-delivery reordering distance,
// small enough that a long-lived node never grows it. A multiple of 8
// (dedupRing packs eight fingerprints to a word).
const dedupWindow = 64

// dedupRing remembers the last dedupWindow distinct reply-to keys a
// handler served, overwriting the oldest when full. Beside each key it
// keeps a one-byte fingerprint (the low byte of the key's FNV-1a hash),
// eight to a word, so a lookup tests eight slots per step and compares
// strings only where a fingerprint matches: comparing all 64 strings
// cost more than the map this ring replaced.
type dedupRing struct {
	keys [dedupWindow]string
	tags [dedupWindow / 8]uint64 // byte i%8 of word i/8 fingerprints keys[i]
	next int                     // slot the next key goes in
}

const bytesLSB, bytesMSB = 0x0101010101010101, 0x8080808080808080

// add records key and reports true, or reports false when key is
// already in the window.
func (r *dedupRing) add(key string) bool {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	tag := h & 0xff
	for w, word := range r.tags {
		// x has a zero byte where the fingerprint matches; m flags every
		// zero byte of x, plus possibly bytes above one (the borrow of
		// the subtraction), which the string comparison sorts out.
		x := word ^ tag*bytesLSB
		for m := (x - bytesLSB) &^ x & bytesMSB; m != 0; m &= m - 1 {
			if r.keys[w*8+bits.TrailingZeros64(m)/8] == key {
				return false
			}
		}
	}
	r.keys[r.next] = key
	w, shift := r.next/8, uint(r.next%8)*8
	r.tags[w] = r.tags[w]&^(0xff<<shift) | tag<<shift
	r.next = (r.next + 1) % dedupWindow
	return true
}

// incoming is a measure command as it arrives: the requester's envelope
// and the request in it, decoded in one pass.
type incoming struct {
	ReplyTo string         `json:"replyTo"`
	Body    MeasureRequest `json:"body"`
}

// decode decodes a command as json.Unmarshal would into a zero incoming,
// without reflection when envelope and body are canonical; a kind the
// last command named keeps its string (MeasureRequest.ParseJSON).
func (cmd *incoming) decode(payload []byte) error {
	if replyTo, body, ok := bus.ParseEnvelope(payload); ok && cmd.Body.ParseJSON(body) {
		cmd.ReplyTo = replyTo
		return nil
	}
	*cmd = incoming{}
	return json.Unmarshal(payload, cmd)
}

// Serve answers the measure commands arriving on cmds until cmds
// closes. A node in another process runs it on its TCP client's
// subscription (bus.Client's Subscribe and Publish).
func (n *Node) Serve(cmds <-chan bus.Message, publish func(topic string, payload []byte) error) {
	var sv server
	for msg := range cmds {
		n.serve(&sv, msg, publish)
	}
}

// server is one attachment's state between the commands it serves.
type server struct {
	mu   sync.Mutex // serialises AttachBus's handler calls
	seen dedupRing
	cmd  incoming
}

// serve answers a measure command with MeasureField, publishing the
// reading to the command's reply-to topic. A transport that duplicates
// deliveries (netsim's async path) re-presents the same envelope; the
// reply-to topic is unique per request, so a bounded ring of recent
// reply-to keys suppresses the duplicate instead of measuring (and
// replying, and spending energy) twice for one command.
func (n *Node) serve(sv *server, msg bus.Message, publish func(topic string, payload []byte) error) {
	cmd := &sv.cmd
	if cmd.decode(msg.Payload) != nil {
		return
	}
	n.Meter.ChargeRx(energy.RadioWiFi, len(msg.Payload))
	if cmd.ReplyTo != "" && !sv.seen.add(cmd.ReplyTo) {
		// The radio already paid to hear it; don't serve it again.
		obsDuplicateCmds.Inc()
		return
	}
	obsServedCmds.Inc()
	kind, ok := sensor.ParseKind(cmd.Body.Kind)
	if !ok {
		return
	}
	reading, err := n.MeasureField(kind)
	if err != nil || cmd.ReplyTo == "" {
		return
	}
	raw, err := reading.AppendJSON(make([]byte, 0, 128))
	if err != nil {
		return
	}
	n.Meter.ChargeTx(energy.RadioWiFi, len(raw))
	//lint:ignore errcheck reply delivery is best-effort by contract; the requester may already have timed out
	_ = publish(cmd.ReplyTo, raw)
}

// --- On-device context processing ----------------------------------------------

// ContextReport is the node's shared context snapshot (already
// privacy-filtered: it carries derived context, not raw samples — itself a
// privacy measure).
type ContextReport struct {
	NodeID   string               `json:"nodeId"`
	Activity contextproc.Activity `json:"activity"`
	Indoor   bool                 `json:"indoor"`
	Stress   float64              `json:"stress"`
}

// SenseContext runs the node's context determination: it collects an
// accelerometer window (optionally via the temporal-compressive pipeline
// to save energy), classifies activity, derives IsIndoor from single GPS +
// WiFi probes, and estimates stress from the microphone level.
//
// When pipe is non-nil only pipe.M of the window's samples are charged to
// the meter — the compressive duty cycle.
func (n *Node) SenseContext(windowLen int, rateHz float64, pipe *contextproc.Pipeline) (ContextReport, error) {
	accel, ok := n.Probes.First(sensor.Accelerometer)
	if !ok {
		return ContextReport{}, fmt.Errorf("node %s: no accelerometer", n.ID)
	}
	obsContextRuns.Inc()
	window, err := accel.CollectAxis(windowLen, 2)
	if err != nil {
		return ContextReport{}, err
	}
	if pipe != nil {
		n.Meter.ChargeSamples(sensor.Accelerometer, pipe.M)
		n.mu.Lock()
		rng := rand.New(rand.NewSource(n.rng.Int63()))
		n.mu.Unlock()
		if window, _, err = pipe.Reconstruct(window, rng); err != nil {
			return ContextReport{}, err
		}
	} else {
		n.Meter.ChargeSamples(sensor.Accelerometer, windowLen)
	}
	f, err := contextproc.Extract(window, rateHz)
	if err != nil {
		return ContextReport{}, err
	}
	act := contextproc.ClassifyActivity(f)
	// IsIndoor from one GPS fix + one WiFi scan.
	var envReading contextproc.EnvReading
	if gps, ok := n.Probes.First(sensor.GPS); ok {
		s := gps.Next()
		envReading.GPSSatellites, envReading.GPSAccuracyM = s.Values[0], s.Values[1]
		n.Meter.ChargeSamples(sensor.GPS, 1)
	}
	if wifi, ok := n.Probes.First(sensor.WiFi); ok {
		s := wifi.Next()
		envReading.WiFiRSSIdBm, envReading.WiFiAPCount = s.Values[0], s.Values[1]
		n.Meter.ChargeSamples(sensor.WiFi, 1)
	}
	stress := 0.0
	if mic, ok := n.Probes.First(sensor.Microphone); ok {
		s := mic.Next()
		n.Meter.ChargeSamples(sensor.Microphone, 1)
		stress = contextproc.StressIndex(s.Values[0], act)
	}
	return ContextReport{
		NodeID:   n.ID,
		Activity: act,
		Indoor:   contextproc.IsIndoor(envReading),
		Stress:   stress,
	}, nil
}
