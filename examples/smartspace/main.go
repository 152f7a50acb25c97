// Smartspace: the paper's smart-buildings use case — monitor environmental
// conditions across a facility, deliver only the relevant information to
// subscribers via query filters, respect occupant privacy policies, and
// log everything for later retrieval.
//
// A 16×16 office floor's temperature field is reconstructed from sparse
// occupant-phone measurements; facility subscribers register filter
// expressions ("temp > 26 && zone == 3") against the per-zone summaries;
// one occupant opts out entirely and one shares only coarse (quantized)
// readings; the log store answers an end-of-run range query.
//
//	go run ./examples/smartspace
package main

import (
	"fmt"
	"log"
	"sort"

	sensedroid "repro"
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sensor"
	"repro/internal/store"
)

func main() {
	sd, err := sensedroid.New(sensedroid.Options{
		FieldW: 16, FieldH: 16,
		ZoneRows: 2, ZoneCols: 2,
		NCsPerZone: 1, NodesPerNC: 4,
		Seed: 2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sd.Close()

	// Occupant privacy: node 0 opts out; node 1 shares temperature only at
	// 0.5 °C granularity.
	sd.Nodes[0].Policy.SetOptOut(true)
	sd.Nodes[1].Policy.SetQuantize(sensor.Temperature, 0.5)

	// Facility subscriptions: filter expressions over zone summaries.
	subs := map[string]string{
		"hvac":     "mean > 24.5",
		"comfort":  "max > 27 || min < 18",
		"security": "zone == 3 && max > 26",
	}
	// Alerts list in subscriber-name order, so every run prints the same.
	names := make([]string, 0, len(subs))
	filters := map[string]*query.Filter{}
	for name, src := range subs {
		f, err := query.Compile(src)
		if err != nil {
			log.Fatal(err)
		}
		names = append(names, name)
		filters[name] = f
	}
	sort.Strings(names)

	db := store.New(0)

	// A warm meeting room in the south-east + afternoon sun on the west.
	truth := sensedroid.GenPlumes(16, 16, 21, []sensedroid.Plume{
		{Row: 12, Col: 12, Sigma: 2, Amplitude: 7}, // crowded meeting room
		{Row: 8, Col: 1, Sigma: 3, Amplitude: 4},   // sun-load
	})
	if err := sd.SetTruth(truth); err != nil {
		log.Fatal(err)
	}

	fmt.Println("round  NMSE    denied  alerts")
	for round := 0; round < 3; round++ {
		sd.Tick(60)
		res, err := sd.RunCampaign(sensedroid.CampaignConfig{TotalM: 96})
		if err != nil {
			log.Fatal(err)
		}
		// Per-zone summaries → store + subscriber filters.
		zones, err := field.Partition(res.Reconstructed, 2, 2)
		if err != nil {
			log.Fatal(err)
		}
		var alerts []string
		for _, z := range zones {
			sub := field.Extract(res.Reconstructed, z)
			minV, maxV, sum := sub.Data[0], sub.Data[0], 0.0
			for _, v := range sub.Data {
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
				sum += v
			}
			mean := sum / float64(len(sub.Data))
			if err := db.Append(fmt.Sprintf("zone%d/temp", z.ID), store.Record{
				T: float64(round * 60), Values: []float64{mean, minV, maxV},
			}); err != nil {
				log.Fatal(err)
			}
			env := query.Env{"zone": z.ID, "mean": mean, "min": minV, "max": maxV}
			for _, name := range names {
				ok, err := filters[name].Eval(env)
				if err != nil {
					log.Fatal(err)
				}
				if ok {
					alerts = append(alerts, fmt.Sprintf("%s@z%d", name, z.ID))
				}
			}
		}
		fmt.Printf("%5d  %.4f  %6d  %v\n", round, res.GlobalNMSE, res.Denied, alerts)
	}

	// End-of-run retrieval: the warm zone's logged history.
	stats, err := db.Aggregate("zone3/temp", 0, 1e9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nzone3 temperature log: %d records, mean %.2f °C, max %.2f °C\n",
		stats.Count, stats.Mean, stats.Max)
	fmt.Printf("series in store: %v\n", db.Series())
}
