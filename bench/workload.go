package main

import (
	"fmt"
	"math/rand"
	"time"
)

// opOut is what one op produced, as far as the run's accounting goes.
type opOut struct {
	nmse  float64 // error of the field the op returned or served, against truth
	bytes int64   // payload bytes the op moved across a transport
}

// counts accumulates the work a traced pass saw at layer boundaries, by
// name, over all its ops.
type counts map[string]float64

// perOp divides every count by the number of ops that produced them.
func (c counts) perOp(ops int) counts {
	out := make(counts, len(c))
	for name, v := range c {
		out[name] = v / float64(max(ops, 1))
	}
	return out
}

// deployment is one built system under test. Ops are numbered from the
// deployment's first; every op draws its inputs by that number, so the
// n-th op of a seed is the same work on every run.
type deployment interface {
	// op runs the next unit of work through the program's own entry point.
	// A check that fails on the op's output is an error like any other.
	op() (opOut, error)
	// staged runs the next unit of work stage by stage through the layers'
	// exported calls, under one root span per op (no spans when tr is
	// nil), and adds what it saw to seen.
	staged(tr *tracer, seen counts) (opOut, error)
	// book enters what the staged pass showed — stage self times, and the
	// per-op means of what staged saw — in the ledger, each stage under
	// the layer that does that work on this workload.
	book(m *metricSet, stages stageLedger, perOp counts)
	// extras measures the workload's own ledger entries that neither an
	// op nor a probe yields, for about the given time.
	extras(m *metricSet, budget time.Duration) error
	// close tears the deployment down: clients, then servers, then buses.
	close()
}

// workload declares one benchmark workload. The sizes are normative:
// they were chosen so that one layer owns most of each path (README).
type workload struct {
	name     string
	nmseCeil float64       // every op's nmse must stay at or below this
	nmseOps  int           // nmse and transport bytes are means over ops 1..nmseOps
	interval time.Duration // > 0: ops are due on this schedule (open loop)

	// setupReps is how many set-ups a run times for setup_s. A set-up of
	// ten milliseconds is at the mercy of one scheduler hiccup, so the
	// quick ones are repeated more often. The count is fixed, not timed:
	// the bus numbers its reply topics from a process-wide counter, and a
	// topic one digit longer is a byte more on every message, so the
	// transport bytes of op n depend on how many ops went before.
	setupReps int

	// inputs draws what the program will be fed from the run's seed; build
	// stands the deployment up around them. Only build is set-up time.
	inputs func(rng *rand.Rand) *inputs
	build  func(in *inputs) (deployment, error)
}

var workloads = []workload{
	{name: "campaign-gather", nmseCeil: 0.1, nmseOps: 256, setupReps: 5,
		inputs: fieldInputs(32, 256), build: buildCampaignGather},
	{name: "campaign-decode", nmseCeil: 0.01, nmseOps: 256, setupReps: 40,
		inputs: fieldInputs(128, 256), build: buildCampaignDecode},
	{name: "serve-mixed", nmseCeil: 0.01, nmseOps: 256, setupReps: 40, interval: 20 * time.Millisecond,
		inputs: serveInputs, build: buildServeMixed},
	{name: "fleet-round", nmseCeil: 0.01, nmseOps: 32, setupReps: 5,
		inputs: fieldInputs(fleetGrid, 32), build: buildFleetRound},
	{name: "wire-gather", nmseCeil: 0.1, nmseOps: 256, setupReps: 40,
		inputs: fieldInputs(wireGrid, 256), build: buildWireGather},
}

// deploymentSeed seeds every RNG inside a deployment — node placement and
// mobility, sensor noise, broker shuffles. It is part of the workload's
// definition, like its sizes: two runs differ in the inputs their seeds
// generate, not in the system they are fed to.
const deploymentSeed = 20140601

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
