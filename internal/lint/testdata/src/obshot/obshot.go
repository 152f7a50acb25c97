// Package obshot is sdlint golden-test input for the obshot analyzer.
// It imports the real repro/internal/obs so the callee resolution under
// test is exactly what production packages exercise.
package obshot

import (
	"fmt"

	"repro/internal/obs"
)

// Hoisted handles are the sanctioned form: interned once at package
// init, nil-safe per event.
var (
	hoistedEvents = obs.GetCounter("obshot.events")
	hoistedDepth  = obs.GetGauge("obshot.depth")
	hoistedLat    = obs.GetHistogram("obshot.latency_ms", obs.LatencyBuckets)
)

func hotLoop(n int) {
	for i := 0; i < n; i++ {
		hoistedEvents.Inc()
		hoistedDepth.Set(float64(i))
		hoistedLat.Observe(float64(i))
	}
}

func perEventLookup(n int) {
	obs.GetCounter("obshot.bad.events").Inc() // want `obs handle lookup GetCounter inside a function body`
	obs.GetGauge("obshot.bad.depth").Set(1)   // want `obs handle lookup GetGauge inside a function body`
	g := obs.Default.Gauge("obshot.bad.reg")  // want `obs handle lookup Gauge inside a function body`
	g.Set(float64(n))
}

func sprintfLabel(zone int) {
	span := obs.StartSpan(fmt.Sprintf("zone.%d.decode", zone)) // want `fmt\.Sprintf builds an obs metric name per call`
	span.Finish()
}

// Spans with static names are fine per event: the analyzer bans the
// per-call registry lookups and name formatting, not recording itself.
func staticSpan() {
	span := obs.StartSpan("obshot.decode")
	span.Finish()
}

// suppressed pins the audited-ignore path.
func suppressed() {
	//lint:ignore obshot golden-test fixture: demonstrates audited suppression
	obs.GetCounter("obshot.audited").Inc()
}
