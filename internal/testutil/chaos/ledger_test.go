package chaos

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/testutil"
)

// ledgerSum is a campaign's reading ledger summed over its zones: the
// measure calls the brokers account for.
func ledgerSum(res *core.CampaignResult) int {
	sum := 0
	for _, rep := range res.Zones {
		g := rep.Reconstruction.Gather
		sum += g.NodesUsed + g.Denied + g.Discarded + g.Failed
	}
	return sum
}

// isMeasure reports whether topic is a measure command of broker brID.
func isMeasure(brID, topic string) bool {
	return strings.HasPrefix(topic, brID+"/node/") && strings.HasSuffix(topic, "/measure")
}

// TestReadingLedgerBalancesEveryRound checks the reading ledger against
// the bus: in every campaign round, the measure calls the brokers made
// equal NodesUsed + Denied + Discarded + Failed summed over the zones —
// every call kept, refused, dropped as a duplicate or off-grid cell, or
// failed, and none lost uncounted. The calls are counted at the bus, not
// by the broker. A fault-free deployment publishes each call once (no
// attempt comes near the timeout), so a hook counting measure publishes
// counts its calls. Under the chaos fault plan a call may be re-sent, so
// an interceptor wrapped around the harness's own counts each distinct
// (scatter, node) pair of the reply topic a request carries: a scatter
// asks each node at most once, and its retries reuse the pair.
func TestReadingLedgerBalancesEveryRound(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	const rounds = 3

	t.Run("clean", func(t *testing.T) {
		opts := chaosOpts()
		opts.Timeout = time.Minute
		sd, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sd.Close()
		if err := sd.SetTruth(chaosTruth()); err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		for _, brID := range sd.BrokerIDs() {
			b, _ := sd.BusOf(brID)
			b.AddHook(func(topic string, _ int) {
				if isMeasure(brID, topic) {
					calls.Add(1)
				}
			})
		}
		discarded := 0
		for round := 0; round < rounds; round++ {
			before := calls.Load()
			res, err := sd.RunCampaign(core.CampaignConfig{TotalM: 100})
			if err != nil {
				t.Fatal(err)
			}
			if made, sum := int(calls.Load()-before), ledgerSum(res); made != sum {
				t.Errorf("round %d: %d measure calls, ledger accounts for %d", round, made, sum)
			}
			for _, rep := range res.Zones {
				discarded += rep.Reconstruction.Gather.Discarded
			}
		}
		if discarded == 0 {
			t.Error("no reading was discarded: the ledger's duplicate-cell count went untested")
		}
	})

	t.Run("faulted", func(t *testing.T) {
		h, err := New(chaosOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		if err := h.SD.SetTruth(chaosTruth()); err != nil {
			t.Fatal(err)
		}
		scriptFaults(h)
		var (
			mu    sync.Mutex
			calls = map[string]bool{} // "<brID>/inbox/<scatter>/<node>" of every call
		)
		for _, brID := range h.SD.BrokerIDs() {
			b, _ := h.SD.BusOf(brID)
			inner := interceptFor(h.nets[brID], brID)
			b.SetInterceptor(func(m bus.Message) (bool, error) {
				if isMeasure(brID, m.Topic) {
					replyTo, _, ok := bus.ParseEnvelope(m.Payload)
					if !ok {
						t.Errorf("measure request on %s without an envelope", m.Topic)
					}
					mu.Lock()
					calls[replyTo[:strings.LastIndexByte(replyTo, '/')]] = true
					mu.Unlock()
				}
				return inner(m)
			})
		}
		failed := 0
		for round := 0; round < rounds; round++ {
			mu.Lock()
			before := len(calls)
			mu.Unlock()
			res, err := h.SD.RunCampaign(core.CampaignConfig{TotalM: 100})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			made := len(calls) - before
			mu.Unlock()
			if sum := ledgerSum(res); made != sum {
				t.Errorf("round %d: %d measure calls, ledger accounts for %d", round, made, sum)
			}
			for _, rep := range res.Zones {
				failed += rep.Reconstruction.Gather.Failed
			}
		}
		if failed == 0 {
			t.Error("no call failed under the fault plan: the ledger's failure count went untested")
		}
	})
}
