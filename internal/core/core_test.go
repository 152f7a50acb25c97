package core

import (
	"testing"

	"repro/internal/contextproc"
	"repro/internal/field"
	"repro/internal/node"
)

func smallOpts() Options {
	return Options{
		FieldW: 16, FieldH: 16,
		ZoneRows: 2, ZoneCols: 2,
		NCsPerZone: 1, NodesPerNC: 4,
		Seed: 11,
	}
}

func plumeTruth() *field.Field {
	return field.GenPlumes(16, 16, 12, []field.Plume{
		{Row: 4, Col: 4, Sigma: 2, Amplitude: 30},
		{Row: 11, Col: 12, Sigma: 3, Amplitude: 20},
	})
}

func TestNewValidation(t *testing.T) {
	bad := []Options{
		{},
		{FieldW: 8, FieldH: 8},
		{FieldW: 8, FieldH: 8, ZoneRows: 3, ZoneCols: 2},
		{FieldW: 8, FieldH: 8, ZoneRows: 2, ZoneCols: 2, NodesPerNC: -1},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestNewBuildsFullHierarchy(t *testing.T) {
	sd, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if len(sd.Public.LCs) != 4 {
		t.Fatalf("local clouds %d, want 4", len(sd.Public.LCs))
	}
	if len(sd.Nodes) != 16 {
		t.Fatalf("nodes %d, want 16", len(sd.Nodes))
	}
	if len(sd.Buses) != 4 {
		t.Fatalf("buses %d, want 4", len(sd.Buses))
	}
}

func TestSetTruthShape(t *testing.T) {
	sd, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if err := sd.SetTruth(field.New(4, 4)); err == nil {
		t.Fatal("want shape error")
	}
	if err := sd.SetTruth(plumeTruth()); err != nil {
		t.Fatal(err)
	}
	if sd.Truth.At(4, 4) < 30 {
		t.Fatal("truth not installed")
	}
}

func TestRunCampaignUniform(t *testing.T) {
	sd, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if err := sd.SetTruth(plumeTruth()); err != nil {
		t.Fatal(err)
	}
	res, err := sd.RunCampaign(CampaignConfig{TotalM: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalNMSE > 0.05 {
		t.Fatalf("campaign NMSE %v", res.GlobalNMSE)
	}
	if res.Measurements == 0 || len(res.Zones) != 4 || len(res.ZoneNMSE) != 4 {
		t.Fatalf("result %+v", res)
	}
	if res.NodesUsed == 0 {
		t.Fatal("no mobile nodes participated")
	}
	// Hotspot localization on the assembled field.
	r, c, _ := res.Reconstructed.MaxLoc()
	if (r-4)*(r-4)+(c-4)*(c-4) > 4 {
		t.Fatalf("hotspot at (%d,%d), truth (4,4)", r, c)
	}
	// Bus traffic and node energy were accounted.
	if sd.BusBytes() == 0 {
		t.Fatal("no bus bytes counted")
	}
	if sd.TotalEnergyMJ() == 0 {
		t.Fatal("no energy charged")
	}
}

func TestRunCampaignAdaptiveBeatsUniformOnLocalizedField(t *testing.T) {
	// A field active in only one zone: adaptive budgeting should not lose
	// to uniform at equal total budget (averaged over repeats).
	truth := field.GenPlumes(16, 16, 5, []field.Plume{{Row: 12, Col: 12, Sigma: 1.8, Amplitude: 50}})
	wins := 0
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		opts := smallOpts()
		opts.Seed = int64(100 + trial)
		sd, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sd.SetTruth(truth); err != nil {
			t.Fatal(err)
		}
		uni, err := sd.RunCampaign(CampaignConfig{TotalM: 60})
		if err != nil {
			t.Fatal(err)
		}
		ada, err := sd.RunCampaign(CampaignConfig{TotalM: 60, Adaptive: true, Prior: truth})
		if err != nil {
			t.Fatal(err)
		}
		if ada.GlobalNMSE <= uni.GlobalNMSE {
			wins++
		}
		// Adaptive plan concentrates on zone 3 (bottom-right).
		if ada.Plan[3] <= ada.Plan[0] {
			t.Fatalf("adaptive plan %v does not favor the active zone", ada.Plan)
		}
		sd.Close()
	}
	if wins < trials/2 {
		t.Fatalf("adaptive beat uniform in only %d/%d trials", wins, trials)
	}
}

func TestRunCampaignValidation(t *testing.T) {
	sd, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if _, err := sd.RunCampaign(CampaignConfig{}); err == nil {
		t.Fatal("want budget error")
	}
	if _, err := sd.RunCampaign(CampaignConfig{TotalM: 40, Adaptive: true}); err == nil {
		t.Fatal("want prior error")
	}
}

func TestSetCriticality(t *testing.T) {
	sd, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if err := sd.SetCriticality(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := sd.SetCriticality(99, 5); err == nil {
		t.Fatal("want unknown-zone error")
	}
	for _, lc := range sd.Public.LCs {
		if lc.Env.Zone().ID == 2 && lc.Env.Zone().Criticality != 5 {
			t.Fatal("criticality not applied")
		}
	}
}

func TestTickMovesNodes(t *testing.T) {
	sd, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	before := make([]int, len(sd.Nodes))
	for i, n := range sd.Nodes {
		before[i] = n.GridIndex()
	}
	for i := 0; i < 30; i++ {
		sd.Tick(5)
	}
	moved := 0
	for i, n := range sd.Nodes {
		if n.GridIndex() != before[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no node changed cell after 150 s of movement")
	}
	if sd.TotalEnergyMJ() == 0 {
		t.Fatal("idle energy not charged")
	}
}

func TestGroupContexts(t *testing.T) {
	opts := smallOpts()
	opts.NodesPerNC = 2
	sd, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	reports := make([]node.ContextReport, 0, len(sd.Nodes))
	for _, n := range sd.Nodes {
		rep, err := n.SenseContext(256, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if len(reports) != len(sd.Nodes) {
		t.Fatalf("reports %d for %d nodes", len(reports), len(sd.Nodes))
	}
	members := make([]contextproc.MemberContext, len(reports))
	for i, r := range reports {
		members[i] = contextproc.MemberContext{
			Member: r.NodeID, Activity: r.Activity, Stress: r.Stress, Indoor: r.Indoor,
		}
	}
	g, err := contextproc.FuseGroup(members)
	if err != nil {
		t.Fatal(err)
	}
	// All nodes walk by construction.
	if g.MajorityAct != contextproc.ActivityWalking {
		t.Fatalf("group activity %s", g.MajorityAct)
	}
}

func TestMultipleNCsPerZone(t *testing.T) {
	opts := smallOpts()
	opts.NCsPerZone = 2
	opts.NodesPerNC = 2
	sd, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if len(sd.Buses) != 8 {
		t.Fatalf("buses %d, want 8 (2 NCs x 4 zones)", len(sd.Buses))
	}
	if err := sd.SetTruth(plumeTruth()); err != nil {
		t.Fatal(err)
	}
	res, err := sd.RunCampaign(CampaignConfig{TotalM: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalNMSE > 0.05 {
		t.Fatalf("multi-NC campaign NMSE %v", res.GlobalNMSE)
	}
}
