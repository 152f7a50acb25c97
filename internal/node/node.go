// Package node implements the mobile-node runtime of the SenseDroid
// middleware — the "thin client" of the paper's Fig. 2. A Node owns its
// sensing probes, privacy policy, energy meter/battery and mobility model,
// serves the broker's measure-on-demand commands over the NanoCloud bus,
// logs readings locally, and runs temporal-compressive context processing
// on-device.
package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/bus"
	"repro/internal/contextproc"
	"repro/internal/energy"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/sensor"
	"repro/internal/store"
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
	Battery float64 // capacity in mJ; 0 = default 4e7 (a ~40 kJ phone pack)
}

// Node is one simulated handset participating in a NanoCloud.
type Node struct {
	ID      string
	Probes  *sensor.Registry
	Policy  *privacy.Policy
	Meter   *energy.Meter
	Battery *energy.Battery
	Store   *store.Store

	env      Environment
	mobility mobility.Model
	rng      *rand.Rand

	mu        sync.Mutex
	subs      []*bus.Subscription
	storeKeys map[sensor.Kind]string // guarded by mu; "<id>/<kind>" per kind measured so far
	serveWG   sync.WaitGroup         // joins the bus-handler goroutines on Detach
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
	if cfg.Battery <= 0 {
		cfg.Battery = 4e7
	}
	probes, err := sensor.StandardPhone(cfg.ID, cfg.Seed, cfg.Profile, cfg.Motion, cfg.Indoor)
	if err != nil {
		return nil, err
	}
	return &Node{
		ID:      cfg.ID,
		Probes:  probes,
		Policy:  privacy.AllowAll(sensor.Accelerometer, sensor.Temperature, sensor.GPS, sensor.WiFi, sensor.Light, sensor.Humidity, sensor.Barometer, sensor.Microphone),
		Meter:   energy.NewMeter(nil),
		Battery: energy.NewBattery(cfg.Battery),
		Store:   store.New(4096),
		env:     env, mobility: mob,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		storeKeys: make(map[sensor.Kind]string),
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
// the node's current location, charging the battery and applying the
// privacy policy. The sensing happens regardless of policy (the user sees
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
	key, ok := n.storeKeys[kind]
	if !ok {
		key = n.ID + "/" + string(kind)
		n.storeKeys[kind] = key
	}
	n.mu.Unlock()
	truth := n.env.FieldValue(kind, idx)
	value := truth + noise
	if err := n.Meter.ChargeSamples(kind, 1); err != nil {
		return FieldReading{}, err
	}
	//lint:ignore errcheck sampling-overhead drain is best-effort; depletion is surfaced by the caller's battery check
	_ = n.Battery.Drain(0.01)
	//lint:ignore errcheck local logging is best-effort; a full or closed store must not fail the measurement itself
	_ = n.Store.AppendScalar(key, 0, value)
	obsMeasurements.Inc()
	shared, ok := n.Policy.Filter(kind, []float64{value})
	if !ok {
		obsMeasureDenied.Inc()
		return FieldReading{NodeID: n.ID, GridIdx: idx, Denied: true}, nil
	}
	return FieldReading{NodeID: n.ID, GridIdx: idx, Value: shared[0], Sigma: sigma}, nil
}

// --- Bus protocol -------------------------------------------------------------

// MeasureRequest is the broker's measure-on-demand command.
type MeasureRequest struct {
	Kind string `json:"kind"`
}

// PositionReply answers a position query.
type PositionReply struct {
	NodeID  string `json:"nodeId"`
	GridIdx int    `json:"gridIdx"`
}

// StatusReply answers a status query: where the node is and how much
// battery it has left — the inputs to battery-aware duty scheduling.
type StatusReply struct {
	NodeID      string  `json:"nodeId"`
	GridIdx     int     `json:"gridIdx"`
	BatteryFrac float64 `json:"batteryFrac"`
	EnergyMJ    float64 `json:"energyMJ"` // meter total so far
}

// MeasureTopic returns the node's measure-command topic on an NC bus.
func MeasureTopic(ncID, nodeID string) string {
	return bus.NodeMeasureTopic(ncID, nodeID)
}

// PositionTopic returns the node's position-query topic.
func PositionTopic(ncID, nodeID string) string {
	return bus.NodePositionTopic(ncID, nodeID)
}

// StatusTopic returns the node's status-query topic.
func StatusTopic(ncID, nodeID string) string {
	return bus.NodeStatusTopic(ncID, nodeID)
}

// AttachBus subscribes the node's command handlers on the NanoCloud bus.
// Radio reception/transmission energy for each served request is charged
// to the node's meter.
//
// Attachment is all-or-nothing: if any subscription fails, AttachBus
// detaches whatever it had already subscribed (joining the serving
// goroutines) before returning the error, so a failed attach leaves no
// bus state or goroutines behind and needs no compensating Detach. A
// node is re-attachable after Detach — the fleet churn path recycles
// node IDs, and a recycled node must start with fresh handler state
// (in particular, an empty reply-topic dedup window).
func (n *Node) AttachBus(b *bus.Bus, ncID string) error {
	if err := n.serveTopic(b, MeasureTopic(ncID, n.ID), n.handleMeasure); err != nil {
		return err
	}
	if err := n.serveTopic(b, PositionTopic(ncID, n.ID), n.handlePosition); err != nil {
		n.Detach()
		return err
	}
	if err := n.serveTopic(b, StatusTopic(ncID, n.ID), n.handleStatus); err != nil {
		n.Detach()
		return err
	}
	return nil
}

// serveTopic subscribes one command topic and spawns the request-serving
// loop that answers it with fn's result. It is the node's single
// responder registration point: sdlint's topicflow analyzer treats every
// serveTopic call as "this node answers requests on that topic".
func (n *Node) serveTopic(b *bus.Bus, topic string, fn func(MeasureRequest) (any, error)) error {
	sub, err := b.Subscribe(topic, 16)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.subs = append(n.subs, sub)
	n.mu.Unlock()
	n.serveWG.Add(1)
	go n.serve(b, sub, fn)
	return nil
}

// Detach unsubscribes all bus handlers and joins their goroutines: when
// Detach returns, no handler will touch the node or the bus again.
// Detach is idempotent — a second call (or a call on a never-attached
// node) is a no-op — and the node may AttachBus again afterwards.
func (n *Node) Detach() {
	n.mu.Lock()
	subs := n.subs
	n.subs = nil
	n.mu.Unlock()
	for _, s := range subs {
		s.Unsubscribe()
	}
	n.serveWG.Wait()
}

// dedupWindow bounds the per-handler duplicate-request memory: large
// enough to cover any plausible duplicate-delivery reordering distance,
// small enough that a long-lived node never grows it.
const dedupWindow = 64

// command is a node command as it arrives: the requester's envelope and
// the request in it, decoded in one pass. Every command's body fits
// MeasureRequest: measure names a kind, position and status send "{}".
type command struct {
	ReplyTo string         `json:"replyTo"`
	Body    MeasureRequest `json:"body"`
}

// serve decodes commands from sub and replies with fn's result. It exits
// when the subscription's channel closes (Unsubscribe or bus Close). A
// transport that duplicates deliveries (netsim's async path) re-presents
// the same envelope; the reply-to topic is unique per request, so a
// bounded ring of recent reply-to keys suppresses the duplicate instead
// of measuring (and replying, and spending energy) twice for one command.
func (n *Node) serve(b *bus.Bus, sub *bus.Subscription, fn func(MeasureRequest) (any, error)) {
	defer n.serveWG.Done()
	seen := make(map[string]bool, dedupWindow)
	var order []string
	for msg := range sub.C {
		var cmd command
		if err := json.Unmarshal(msg.Payload, &cmd); err != nil {
			continue
		}
		//lint:ignore errcheck energy accounting is best-effort in the command loop; an unknown radio kind only skips the charge
		_ = n.Meter.ChargeRx(energy.RadioWiFi, len(msg.Payload))
		if cmd.ReplyTo != "" {
			if seen[cmd.ReplyTo] {
				// The radio already paid to hear it; don't serve it again.
				obsDuplicateCmds.Inc()
				continue
			}
			seen[cmd.ReplyTo] = true
			order = append(order, cmd.ReplyTo)
			if len(order) > dedupWindow {
				delete(seen, order[0])
				order = order[1:]
			}
		}
		obsServedCmds.Inc()
		reply, err := fn(cmd.Body)
		if err != nil || cmd.ReplyTo == "" {
			continue
		}
		raw, err := json.Marshal(reply)
		if err != nil {
			continue
		}
		//lint:ignore errcheck energy accounting is best-effort in the command loop; an unknown radio kind only skips the charge
		_ = n.Meter.ChargeTx(energy.RadioWiFi, len(raw))
		//lint:ignore errcheck reply delivery is best-effort by contract; the requester may already have timed out
		_ = b.Publish(cmd.ReplyTo, raw)
	}
}

func (n *Node) handleMeasure(req MeasureRequest) (any, error) {
	return n.MeasureField(sensor.Kind(req.Kind))
}

func (n *Node) handlePosition(MeasureRequest) (any, error) {
	return PositionReply{NodeID: n.ID, GridIdx: n.GridIndex()}, nil
}

func (n *Node) handleStatus(MeasureRequest) (any, error) {
	return StatusReply{
		NodeID: n.ID, GridIdx: n.GridIndex(),
		BatteryFrac: n.Battery.FractionRemaining(),
		EnergyMJ:    n.Meter.TotalMJ(),
	}, nil
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
// the battery — the compressive duty cycle.
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
	var act contextproc.Activity
	if pipe != nil {
		if err := n.Meter.ChargeSamples(sensor.Accelerometer, pipe.M); err != nil {
			return ContextReport{}, err
		}
		n.mu.Lock()
		rng := rand.New(rand.NewSource(n.rng.Int63()))
		n.mu.Unlock()
		xhat, _, err := pipe.Reconstruct(window, rng)
		if err != nil {
			return ContextReport{}, err
		}
		f, err := contextproc.Extract(xhat, rateHz)
		if err != nil {
			return ContextReport{}, err
		}
		act = contextproc.ClassifyActivity(f)
	} else {
		if err := n.Meter.ChargeSamples(sensor.Accelerometer, windowLen); err != nil {
			return ContextReport{}, err
		}
		f, err := contextproc.Extract(window, rateHz)
		if err != nil {
			return ContextReport{}, err
		}
		act = contextproc.ClassifyActivity(f)
	}
	// IsIndoor from one GPS fix + one WiFi scan.
	var envReading contextproc.EnvReading
	if gps, ok := n.Probes.First(sensor.GPS); ok {
		s := gps.Next()
		envReading.GPSSatellites, envReading.GPSAccuracyM = s.Values[0], s.Values[1]
		//lint:ignore errcheck context sampling energy is best-effort accounting; it must not veto the context report
		_ = n.Meter.ChargeSamples(sensor.GPS, 1)
	}
	if wifi, ok := n.Probes.First(sensor.WiFi); ok {
		s := wifi.Next()
		envReading.WiFiRSSIdBm, envReading.WiFiAPCount = s.Values[0], s.Values[1]
		//lint:ignore errcheck context sampling energy is best-effort accounting; it must not veto the context report
		_ = n.Meter.ChargeSamples(sensor.WiFi, 1)
	}
	stress := 0.0
	if mic, ok := n.Probes.First(sensor.Microphone); ok {
		s := mic.Next()
		//lint:ignore errcheck context sampling energy is best-effort accounting; it must not veto the context report
		_ = n.Meter.ChargeSamples(sensor.Microphone, 1)
		stress = contextproc.StressIndex(s.Values[0], act)
	}
	return ContextReport{
		NodeID:   n.ID,
		Activity: act,
		Indoor:   contextproc.IsIndoor(envReading),
		Stress:   stress,
	}, nil
}
