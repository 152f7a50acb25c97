package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/bus"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/sensor"
)

const (
	wireGrid     = 32
	wireConns    = 2
	wireNodes    = 64 // identities per connection
	wireM        = 96
	wireNC       = "nc0"
	wireNoise    = 0.2
	wireCellSize = 10 // metres per cell, as the broker's world has it
	wireRoundGap = 30 // simulated seconds between two gather rounds
)

// wireGather is one NanoCloud broker whose nodes live across TCP: the
// broker's bus is served on a loopback listener and two client
// connections each host 64 node identities that answer measure commands
// the way cmd/sensedroid-node does. Its op is one gather round and the
// decode of what came back — the broker code of campaign-gather, with
// newline-JSON frames and base64 payloads where that has channel sends.
type wireGather struct {
	bus     *bus.Bus
	srv     *bus.Server
	br      *broker.Broker
	world   *field.Field // the truth the nodes and the broker's fallback both read
	fields  []*field.Field
	clients []*wireClient
	n       int
	meter   busMeter
}

// worldEnv shows the broker the shared world, for its infrastructure
// fallback.
type worldEnv struct{ f *field.Field }

func (e worldEnv) FieldValue(_ sensor.Kind, gridIdx int) float64 { return e.f.Data[gridIdx] }
func (e worldEnv) GridDims() (int, int)                          { return e.f.W, e.f.H }
func (e worldEnv) AreaDims() (float64, float64) {
	return float64(e.f.W) * wireCellSize, float64(e.f.H) * wireCellSize
}

// wireClient is one TCP connection and the node identities behind it.
type wireClient struct {
	cli   *bus.Client
	world *field.Field
	done  chan struct{} // closed when the serving goroutine has exited

	mu    sync.Mutex
	rng   *rand.Rand           // measurement noise
	nodes map[string]*wireNode // by measure topic
}

// wireNode is one hosted identity. It roams by the Gauss–Markov model,
// whose reflecting walls keep the crowd uniform over the area; random
// waypoint drifts it to the middle, and the edges then go unsampled.
type wireNode struct {
	id  string
	mob *mobility.GaussMarkov
}

func buildWireGather(in *inputs) (deployment, error) {
	rng := rand.New(rand.NewSource(deploymentSeed))
	d := &wireGather{
		bus:    bus.New(),
		world:  field.New(wireGrid, wireGrid),
		fields: in.fields,
	}
	d.bus.AddHook(d.meter.hook)
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	var err error
	if d.srv, err = bus.NewServer(d.bus, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	env := worldEnv{d.world}
	d.br, err = broker.New(broker.Config{ID: wireNC, Seed: rng.Int63(), Timeout: 3 * time.Second}, d.bus, env)
	if err != nil {
		return nil, err
	}
	areaW, areaH := env.AreaDims()
	for c := 0; c < wireConns; c++ {
		cli, err := bus.Dial(d.srv.Addr())
		if err != nil {
			return nil, err
		}
		wc := &wireClient{
			cli: cli, world: d.world, done: make(chan struct{}),
			rng: rand.New(rand.NewSource(rng.Int63())), nodes: map[string]*wireNode{},
		}
		d.clients = append(d.clients, wc)
		host := fmt.Sprintf("w%d", c)
		for i := 0; i < wireNodes; i++ {
			id := fmt.Sprintf("%s/n%d", host, i)
			mob, err := mobility.NewGaussMarkov(rand.New(rand.NewSource(rng.Int63())), areaW, areaH, 0.75, 1.5, 0.5)
			if err != nil {
				close(wc.done)
				return nil, err
			}
			wc.nodes[node.MeasureTopic(wireNC, id)] = &wireNode{id, mob}
			if err := d.br.Register(id); err != nil {
				close(wc.done)
				return nil, err
			}
		}
		cmds, err := cli.Subscribe(bus.NodeCommandPattern(wireNC, host))
		if err != nil {
			close(wc.done)
			return nil, err
		}
		go wc.serve(cmds)
		// The subscription frame is in flight; a command published before
		// the server has acted on it would wait out the broker's timeout.
		probe := node.MeasureTopic(wireNC, host+"/n0")
		for deadline := time.Now().Add(5 * time.Second); d.bus.SubscriberCount(probe) == 0; {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("wire-gather: connection %d never subscribed", c)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	ok = true
	return d, nil
}

// serve answers measure commands until the connection closes, as the
// standalone node process does: decode the request envelope, read the
// world at the node's cell, publish the reading on the reply topic.
func (wc *wireClient) serve(cmds <-chan bus.Message) {
	defer close(wc.done)
	for msg := range cmds {
		var env struct {
			ReplyTo string          `json:"replyTo"`
			Body    json.RawMessage `json:"body"`
		}
		if err := json.Unmarshal(msg.Payload, &env); err != nil || env.ReplyTo == "" {
			continue
		}
		wc.mu.Lock()
		nd, hosted := wc.nodes[msg.Topic]
		var reading node.FieldReading
		if hosted {
			idx := mobility.GridIndex(nd.mob.Pos(), wireGrid*wireCellSize, wireGrid*wireCellSize, wireGrid, wireGrid)
			reading = node.FieldReading{
				NodeID: nd.id, GridIdx: idx,
				Value: wc.world.Data[idx] + wc.rng.NormFloat64()*wireNoise, Sigma: wireNoise,
			}
		}
		wc.mu.Unlock()
		if !hosted {
			continue
		}
		raw, err := json.Marshal(reading)
		if err != nil {
			continue
		}
		if err := wc.cli.Publish(env.ReplyTo, raw); err != nil {
			return // connection gone
		}
	}
}

// advance moves the world to op i: the next truth field, and the roaming
// every hosted node does between two rounds.
func (d *wireGather) advance(i int) {
	for _, wc := range d.clients {
		wc.mu.Lock()
	}
	copy(d.world.Data, d.fields[i%len(d.fields)].Data)
	for _, wc := range d.clients {
		for _, nd := range wc.nodes {
			nd.mob.Step(wireRoundGap)
		}
		wc.mu.Unlock()
	}
}

func (d *wireGather) op() (opOut, error) { return d.staged(nil, counts{}) }

// staged is the op under its spans; the broker's two exported calls are
// all the seam there is, so the untraced op is the same code with no
// tracer.
func (d *wireGather) staged(tr *tracer, seen counts) (opOut, error) {
	i := d.n
	d.n++
	root := tr.begin(0, i, "op")
	defer tr.end(root)

	s := tr.begin(root, i, "tick")
	d.advance(i)
	tr.end(s)
	msgs, before := d.meter.msgs.Load(), d.meter.bytes.Load()
	s = tr.begin(root, i, "gather")
	g, err := d.br.GatherContext(context.Background(), sensor.Temperature, wireM)
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	s = tr.begin(root, i, "decode")
	rec, err := d.br.ReconstructFrom(g, broker.ReconstructOptions{UseGLS: true})
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	s = tr.begin(root, i, "score")
	nmse := cs.NMSE(d.world.Data, rec.Field.Data)
	tr.end(s)
	if g.NodesUsed+g.InfraUsed != wireM {
		return opOut{}, fmt.Errorf("wire-gather: %d mobile + %d infra measurements, budget is %d", g.NodesUsed, g.InfraUsed, wireM)
	}
	bytes := d.meter.bytes.Load() - before
	d.meter.since(msgs, before, seen)
	seen["broker.mobile"] += float64(g.NodesUsed)
	seen["broker.infra"] += float64(g.InfraUsed)
	seen["broker.denied"] += float64(g.Denied)
	seen["broker.shortfall"] += float64(g.Shortfall)
	seen["cs.iterations"] += float64(rec.Result.Iterations)
	seen["cs.support"] += float64(len(rec.Result.Support))
	seen["cs.residual"] += rec.Result.Residual
	seen["cs.zones"]++
	return opOut{nmse: nmse, bytes: bytes}, nil
}

func (d *wireGather) book(m *metricSet, stages stageLedger, perOp counts) {
	m.set("broker.gather_ms", stages.perOpMS("gather"))
	bookGatherDecode(m, stages, perOp)
}

func (d *wireGather) extras(*metricSet, time.Duration) error { return nil }

// close tears down in dependency order: the client connections and their
// serving goroutines, then the listener, then the bus.
func (d *wireGather) close() {
	for _, wc := range d.clients {
		wc.cli.Close()
		<-wc.done
	}
	if d.srv != nil {
		d.srv.Close()
	}
	d.bus.Close()
}
