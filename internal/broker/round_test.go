package broker

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/sensor"
)

// orderNodes returns the roster's IDs in the order a gather round
// solicits them, drawing the round's shuffle from the broker's generator.
func (br *Broker) orderNodes() []string {
	order := br.order(nil)
	ids := make([]string, len(order))
	for i, m := range order {
		ids[i] = m.id
	}
	return ids
}

// TestConcurrentGathersKeepTheirOwnScratch runs gather rounds on one
// broker from eight goroutines at once, so the pooled round scratch is
// handed from round to round while others are in flight. Under -race a
// buffer two rounds share is a reported race; without it, every round
// must still read as a round of its own: each kept reading comes from
// the node it names, at that node's cell, and with the infrastructure
// fallback off a round that asks for every occupied cell gets them all,
// which a cell marked taken by another round would deny it.
func TestConcurrentGathersKeepTheirOwnScratch(t *testing.T) {
	br, truth, nodes := testNC(t, 40, 7)
	br.SetInfraEnabled(false)
	cellOf := make(map[string]int, len(nodes))
	occupied := map[int]bool{}
	for _, nd := range nodes {
		cellOf[nd.ID] = nd.GridIndex()
		occupied[cellOf[nd.ID]] = true
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				res, err := br.GatherContext(context.Background(), sensor.Temperature, len(occupied))
				if err != nil {
					errs <- err.Error()
					return
				}
				if msg := checkOwnRound(res, cellOf, truth.Data, len(occupied)); msg != "" {
					errs <- msg
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// checkOwnRound describes what is wrong with res as one round that asked
// for all m occupied cells of nodes that stand still, or returns "".
func checkOwnRound(res *GatherResult, cellOf map[string]int, truth []float64, m int) string {
	if len(res.Locs) != m || res.NodesUsed != m || res.Shortfall != 0 || res.Failed+res.Denied != 0 {
		return fmt.Sprintf("round came up short: %+v", res)
	}
	cells := map[int]bool{}
	for i, id := range res.NodeIDs {
		cell, ok := cellOf[id]
		if !ok || cell != res.Locs[i] || cells[cell] || math.Abs(res.Values[i]-truth[cell]) > 10*res.Sigmas[i] {
			return fmt.Sprintf("reading %d does not belong to its node: %+v", i, res)
		}
		cells[cell] = true
	}
	return ""
}
