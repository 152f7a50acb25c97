// Command sensedroid-node runs one simulated mobile node as a standalone
// process: it dials a sensedroid-broker's TCP bus, registers, and serves
// the broker's measure commands while roaming the shared synthetic world
// (use the same -world-seed as the broker). The node is a node.Node, so
// it keeps the in-process node's privacy policy, energy meter, probe
// noise and duplicate-command suppression.
//
//	sensedroid-node -addr localhost:7070 -nc nc0 -id n1 -world-seed 9
package main

import (
	"flag"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"repro/internal/bus"
	"repro/internal/cloud"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sensor"
)

// profiles are the handset classes -profile names.
var profiles = map[string]sensor.DeviceProfile{
	"flagship": sensor.ProfileFlagship,
	"midrange": sensor.ProfileMidrange,
	"budget":   sensor.ProfileBudget,
}

func main() {
	var (
		addr      = flag.String("addr", "localhost:7070", "broker bus address")
		ncID      = flag.String("nc", "nc0", "NanoCloud ID")
		id        = flag.String("id", "n1", "node ID")
		w         = flag.Int("w", 16, "field width (must match broker)")
		h         = flag.Int("h", 16, "field height (must match broker)")
		worldSeed = flag.Int64("world-seed", 9, "shared synthetic-world seed")
		seed      = flag.Int64("seed", 0, "node RNG seed (0 = derive from id)")
		profile   = flag.String("profile", "midrange", "handset class, which scales sensor noise: flagship, midrange (temperature sigma 0.2) or budget")
		debugAddr = flag.String("debug-addr", "", "serve /metrics.json, /spans and /debug/pprof on this address (enables metrics)")
	)
	flag.Parse()
	prof, ok := profiles[*profile]
	if !ok {
		log.Fatalf("sensedroid-node: unknown -profile %q", *profile)
	}
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
	world, _ := field.GenRandomPlumes(rand.New(rand.NewSource(*worldSeed)), *w, *h, 3, 10, 30)
	env, err := cloud.NewZoneEnv(world, field.Zone{W: *w, H: *h}, 10)
	if err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	areaW, areaH := env.AreaDims()
	mob, err := mobility.NewRandomWaypoint(rand.New(rand.NewSource(*seed)), areaW, areaH, 0.8, 2.2, 2)
	if err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	nd, err := node.New(node.Config{ID: *id, Seed: *seed, Profile: prof}, env, mob)
	if err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}

	cli, err := bus.Dial(*addr)
	if err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	defer cli.Close()

	// Subscribe to this node's command topic before registering so no
	// command can race past us.
	cmds, err := cli.Subscribe(node.MeasureTopic(*ncID, *id))
	if err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	if err := cli.Publish(bus.RegisterTopic(*ncID), []byte(*id)); err != nil {
		log.Fatalf("sensedroid-node: %v", err)
	}
	log.Printf("node %s joined %s at %s", *id, *ncID, *addr)

	served := make(chan struct{})
	go func() { // serve until the connection closes
		defer close(served)
		nd.Serve(cmds, cli.Publish)
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			log.Printf("node %s leaving", *id)
			return
		case <-served:
			log.Printf("node %s: bus closed", *id)
			return
		case <-tick.C:
			nd.Move(0.5)
		}
	}
}
