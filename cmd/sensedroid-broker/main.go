// Command sensedroid-broker runs a NanoCloud broker as a standalone
// process serving the middleware bus over TCP, so sensedroid-node
// processes can join from other terminals/machines.
//
// Both sides simulate the same physical world from a shared seed (there
// is no real atmosphere to measure), so start nodes with the identical
// -world-seed:
//
//	sensedroid-broker -addr :7070 -nc nc0 -world-seed 9
//	sensedroid-node   -addr localhost:7070 -nc nc0 -id n1 -world-seed 9
//
// The broker waits for registrations on <nc>/register, then runs a gather
// + reconstruct round every -interval and prints a field summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/bus"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/sensor"
)

// worldEnv exposes the shared synthetic world to the broker (used for the
// infrastructure-sensor fallback).
type worldEnv struct {
	f     *field.Field
	scale float64
}

func (e worldEnv) FieldValue(kind sensor.Kind, gridIdx int) float64 { return e.f.Data[gridIdx] }
func (e worldEnv) GridDims() (int, int)                             { return e.f.W, e.f.H }
func (e worldEnv) AreaDims() (float64, float64) {
	return float64(e.f.W) * e.scale, float64(e.f.H) * e.scale
}

func main() {
	var (
		addr      = flag.String("addr", ":7070", "TCP listen address")
		ncID      = flag.String("nc", "nc0", "NanoCloud ID")
		w         = flag.Int("w", 16, "field width")
		h         = flag.Int("h", 16, "field height")
		m         = flag.Int("m", 48, "measurements per round")
		interval  = flag.Duration("interval", 5*time.Second, "round interval")
		rounds    = flag.Int("rounds", 0, "rounds to run (0 = forever)")
		worldSeed = flag.Int64("world-seed", 9, "shared synthetic-world seed")
		seed      = flag.Int64("seed", 1, "broker RNG seed")
		debugAddr = flag.String("debug-addr", "", "serve /metrics.json, /spans and /debug/pprof on this address (enables metrics)")
	)
	flag.Parse()

	if *debugAddr != "" {
		dbg, bound, err := obs.StartDebugServer(*debugAddr, obs.Default)
		if err != nil {
			log.Fatalf("sensedroid-broker: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug endpoints on http://%s (/metrics.json /spans /debug/pprof/)", bound)
	}

	rng := rand.New(rand.NewSource(*worldSeed))
	world, _ := field.GenRandomPlumes(rng, *w, *h, 3, 10, 30)
	env := worldEnv{f: world, scale: 10}

	b := bus.New()
	b.AddHook(bus.ObsHook())
	srv, err := bus.NewServer(b, *addr)
	if err != nil {
		log.Fatalf("sensedroid-broker: %v", err)
	}
	defer srv.Close()
	log.Printf("broker %s listening on %s (world %dx%d, M=%d)", *ncID, srv.Addr(), *h, *w, *m)

	br, err := broker.New(broker.Config{ID: *ncID, Seed: *seed, Timeout: 3 * time.Second}, b, env)
	if err != nil {
		log.Fatalf("sensedroid-broker: %v", err)
	}

	// Accept node registrations.
	var mu sync.Mutex
	reg, err := b.Subscribe(bus.RegisterTopic(*ncID), 64)
	if err != nil {
		log.Fatalf("sensedroid-broker: %v", err)
	}
	go func() {
		for msg := range reg.C {
			id := string(msg.Payload)
			mu.Lock()
			if err := br.Register(id); err != nil {
				log.Printf("register %s: %v", id, err)
			} else {
				log.Printf("node %s joined", id)
			}
			mu.Unlock()
		}
	}()

	// An interrupt cancels the round in flight as well as the loop: a gather
	// waiting on stragglers returns "gather round abandoned" at once instead
	// of timing every one of them out first.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	round := 0
	for ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-ticker.C:
			round++
			rec, err := br.ReconstructContext(ctx, sensor.Temperature, *m, broker.ReconstructOptions{UseGLS: true})
			if err != nil {
				log.Printf("round %d: %v", round, err)
				continue
			}
			r, c, v := rec.Field.MaxLoc()
			fmt.Printf("round %3d: nodes=%d infra=%d denied=%d support=%d residual=%.4f hotspot=(%d,%d)=%.2f\n",
				round, rec.Gather.NodesUsed, rec.Gather.InfraUsed, rec.Gather.Denied,
				len(rec.Result.Support), rec.Result.Residual, r, c, v)
			if *rounds > 0 && round >= *rounds {
				return
			}
		}
	}
	log.Printf("broker shutting down after %d rounds", round)
}
