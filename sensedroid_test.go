package sensedroid

import (
	"testing"

	"repro/internal/sensor"
)

// TestPublicAPIEndToEnd drives the full middleware through the public
// façade only: deploy, install truth, campaign, inspect.
func TestPublicAPIEndToEnd(t *testing.T) {
	sd, err := New(Options{
		FieldW: 16, FieldH: 16, ZoneRows: 2, ZoneCols: 2,
		NCsPerZone: 1, NodesPerNC: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()

	truth := GenPlumes(16, 16, 10, []Plume{{Row: 5, Col: 11, Sigma: 2.5, Amplitude: 25}})
	if err := sd.SetTruth(truth); err != nil {
		t.Fatal(err)
	}
	res, err := sd.RunCampaign(CampaignConfig{TotalM: 90})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalNMSE > 0.05 {
		t.Fatalf("NMSE %v", res.GlobalNMSE)
	}
	r, c, _ := res.Reconstructed.MaxLoc()
	if (r-5)*(r-5)+(c-11)*(c-11) > 4 {
		t.Fatalf("hotspot at (%d,%d), truth (5,11)", r, c)
	}
	// Adaptive follow-up reusing the first reconstruction as the prior —
	// the intended steady-state usage pattern.
	res2, err := sd.RunCampaign(CampaignConfig{
		TotalM: 90, Adaptive: true, Prior: res.Reconstructed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.GlobalNMSE > 0.1 {
		t.Fatalf("adaptive follow-up NMSE %v", res2.GlobalNMSE)
	}
}

func TestNewFieldHelper(t *testing.T) {
	f := NewField(4, 6)
	if f.W != 4 || f.H != 6 || f.N() != 24 {
		t.Fatalf("field %dx%d", f.H, f.W)
	}
}

// TestDayInTheLife exercises the whole middleware in one scenario: deploy,
// sense every member's context, run a spatial campaign, let the hotspot
// drift while the nodes move, and check the books (energy, traffic) at the
// end.
func TestDayInTheLife(t *testing.T) {
	sd, err := New(Options{
		FieldW: 16, FieldH: 16, ZoneRows: 2, ZoneCols: 2,
		NCsPerZone: 1, NodesPerNC: 3, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()

	// Morning: everyone senses context on device.
	for _, n := range sd.Nodes {
		if _, err := n.SenseContext(256, 64, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Midday: a hotspot appears; spatial campaign maps it.
	truth := GenPlumes(16, 16, 18, []Plume{{Row: 9, Col: 4, Sigma: 2.2, Amplitude: 22}})
	if err := sd.SetTruth(truth); err != nil {
		t.Fatal(err)
	}
	res, err := sd.RunCampaign(CampaignConfig{TotalM: 90})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalNMSE > 0.05 {
		t.Fatalf("midday campaign NMSE %v", res.GlobalNMSE)
	}

	// Afternoon: the hotspot drifts while the nodes move.
	for step := 0; step < 4; step++ {
		if err := sd.SetTruth(GenPlumes(16, 16, 18, []Plume{{
			Row: 9 + 0.5*float64(step), Col: 4 + 0.4*float64(step),
			Sigma: 2.2, Amplitude: 22,
		}})); err != nil {
			t.Fatal(err)
		}
		sd.Tick(30)
	}

	// Evening audit: the middleware kept its books.
	if sd.BusBytes() == 0 {
		t.Fatal("no bus traffic recorded")
	}
	if sd.TotalEnergyMJ() == 0 {
		t.Fatal("no energy recorded")
	}
	// Every node measured the campaign's field at least once: its meter
	// holds a temperature-sample charge (context sensing samples other
	// kinds).
	for _, n := range sd.Nodes {
		if n.Meter.Breakdown()["sense/"+string(sensor.Temperature)] <= 0 {
			t.Fatalf("node %s never measured the field over a full day", n.ID)
		}
	}
}
