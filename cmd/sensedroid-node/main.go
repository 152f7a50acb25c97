// Command sensedroid-node runs one simulated mobile node as a standalone
// process: it dials a sensedroid-broker's TCP bus, registers, and serves
// the broker's measure/position commands while roaming the shared
// synthetic world (use the same -world-seed as the broker).
//
//	sensedroid-node -addr localhost:7070 -nc nc0 -id n1 -world-seed 9
package main

import (
	"flag"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/obs"
)

// Standalone-node observability handles (no-ops unless -debug-addr).
var (
	obsCommands = obs.GetCounter("nodeproc.commands")
	obsReplies  = obs.GetCounter("nodeproc.replies")
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:7070", "broker bus address")
		ncID      = flag.String("nc", "nc0", "NanoCloud ID")
		id        = flag.String("id", "n1", "node ID")
		w         = flag.Int("w", 16, "field width (must match broker)")
		h         = flag.Int("h", 16, "field height (must match broker)")
		worldSeed = flag.Int64("world-seed", 9, "shared synthetic-world seed")
		seed      = flag.Int64("seed", 0, "node RNG seed (0 = derive from id)")
		noise     = flag.Float64("noise", 0.2, "sensor noise sigma")
		debugAddr = flag.String("debug-addr", "", "serve /metrics.json, /spans and /debug/pprof on this address (enables metrics)")
	)
	flag.Parse()
	if *debugAddr != "" {
		dbg, bound, err := obs.StartDebugServer(*debugAddr, obs.Default)
		if err != nil {
			log.Fatalf("sensedroid-node: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug endpoints on http://%s (/metrics.json /spans /debug/pprof/)", bound)
	}
	if *seed == 0 {
		for _, ch := range *id {
			*seed = *seed*131 + int64(ch)
		}
	}

	// Rebuild the shared world.
	wrng := rand.New(rand.NewSource(*worldSeed))
	world, _ := field.GenRandomPlumes(wrng, *w, *h, 3, 10, 30)
	areaW, areaH := float64(*w)*10, float64(*h)*10

	cli, err := bus.Dial(*addr)
	if err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	defer cli.Close()

	// Subscribe to this node's command topics before registering so no
	// command can race past us.
	cmds, err := cli.Subscribe(bus.NodeCommandPattern(*ncID, *id))
	if err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	if err := cli.Publish(bus.RegisterTopic(*ncID), []byte(*id)); err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	log.Printf("node %s joined %s at %s", *id, *ncID, *addr)

	rng := rand.New(rand.NewSource(*seed))
	mob, err := mobility.NewRandomWaypoint(rng, areaW, areaH, 0.8, 2.2, 2)
	if err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	var mu sync.Mutex
	roamDone := make(chan struct{})
	defer close(roamDone)
	go func() { // roam until main returns
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-roamDone:
				return
			case <-tick.C:
				mu.Lock()
				mob.Step(0.5)
				mu.Unlock()
			}
		}
	}()
	gridIdx := func() int {
		mu.Lock()
		defer mu.Unlock()
		return mobility.GridIndex(mob.Pos(), areaW, areaH, *w, *h)
	}

	measureTopic := bus.NodeMeasureTopic(*ncID, *id)
	positionTopic := bus.NodePositionTopic(*ncID, *id)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	for {
		select {
		case <-stop:
			log.Printf("node %s leaving", *id)
			return
		case msg, ok := <-cmds:
			if !ok {
				log.Printf("node %s: bus closed", *id)
				return
			}
			replyTo, _, err := bus.DecodeEnvelope(msg.Payload)
			if err != nil || replyTo == "" {
				continue
			}
			obsCommands.Inc()
			var raw []byte
			switch msg.Topic {
			case measureTopic:
				idx := gridIdx()
				raw, err = node.FieldReading{
					NodeID: *id, GridIdx: idx,
					Value: world.Data[idx] + rng.NormFloat64()*(*noise),
					Sigma: *noise,
				}.AppendJSON(nil)
			case positionTopic:
				raw, err = node.PositionReply{NodeID: *id, GridIdx: gridIdx()}.AppendJSON(nil)
			default:
				continue
			}
			if err != nil {
				continue
			}
			if err := cli.Publish(replyTo, raw); err != nil {
				log.Printf("node %s: publish reply: %v", *id, err)
			} else {
				obsReplies.Inc()
			}
		}
	}
}
