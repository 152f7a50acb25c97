package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/snapshot"
	"repro/internal/testutil"
	"repro/internal/testutil/chaos"
)

func streamOpts() core.Options {
	return core.Options{
		FieldW: 16, FieldH: 16,
		ZoneRows: 2, ZoneCols: 2,
		NCsPerZone: 1, NodesPerNC: 5,
		Seed:    7,
		Timeout: 50 * time.Millisecond,
	}
}

// faultFreeOpts is streamOpts for the tests that compare runs with each
// other. A broker re-sends a request whose reply misses the attempt
// timeout, and the node measures again with a fresh noise draw, so a
// delivered reply that a loaded machine holds past 50 ms changes what the
// run gathers. These tests lose no message, so they get a timeout only a
// lost one could reach.
func faultFreeOpts() core.Options {
	o := streamOpts()
	o.Timeout = 10 * time.Second
	return o
}

// driftingPlumes is the slowly-varying world: two plumes whose centers
// creep a fraction of a cell per window.
func driftingPlumes(step int, t float64) *field.Field {
	return field.GenPlumes(16, 16, 10, []field.Plume{
		{Row: 4 + 0.05*t, Col: 4 + 0.03*t, Sigma: 2.5, Amplitude: 25},
		{Row: 11, Col: 12 - 0.04*t, Sigma: 3, Amplitude: 18},
	})
}

func newPipeline(t *testing.T, cfg Config) (*Pipeline, *core.SenseDroid) {
	t.Helper()
	sd, err := core.New(streamOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sd.Close)
	if err := sd.SetTruth(driftingPlumes(0, 0)); err != nil {
		t.Fatal(err)
	}
	p, err := New(sd, snapshot.NewRegistry(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, sd
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(nil, snapshot.NewRegistry(1), Config{Budget: 10}); err == nil {
		t.Fatal("nil deployment accepted")
	}
	sd, err := core.New(streamOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if _, err := New(sd, nil, Config{Budget: 10}); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := New(sd, snapshot.NewRegistry(1), Config{}); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestStepPublishesVersionedSnapshots(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	p, _ := newPipeline(t, Config{
		Budget: 60, WarmStart: true, Evolve: driftingPlumes,
	})
	for i := 1; i <= 3; i++ {
		s, err := p.Step()
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if s.Version != uint64(i) || s.Step != i {
			t.Fatalf("window %d: version %d step %d", i, s.Version, s.Step)
		}
		if s.NMSE < 0 || s.NMSE > 1 {
			t.Fatalf("window %d: NMSE %v out of range", i, s.NMSE)
		}
		if len(s.Supports) != 4 {
			t.Fatalf("window %d: %d zone supports, want 4", i, len(s.Supports))
		}
		if s.Measurements == 0 {
			t.Fatalf("window %d: no measurements", i)
		}
	}
	if p.Windows() != 3 {
		t.Fatalf("Windows = %d, want 3", p.Windows())
	}
}

// Start/Stop must leave no goroutines behind and publish windows while
// running.
func TestPipelineStartStopLifecycle(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	p, _ := newPipeline(t, Config{
		Budget: 60, Interval: 5 * time.Millisecond,
		WarmStart: true, Evolve: driftingPlumes,
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.reg.WaitContext(ctx, 2); err != nil {
		t.Fatalf("no snapshots while running: %v", err)
	}
	p.Stop()
	p.Stop() // idempotent
	v := p.reg.Latest().Version
	time.Sleep(20 * time.Millisecond)
	if got := p.reg.Latest().Version; got != v {
		t.Fatalf("pipeline still publishing after Stop: %d → %d", v, got)
	}
}

// fingerprint renders a snapshot's float state exactly (hex bits), so two
// runs can be compared for float identity.
func fingerprint(s *snapshot.Snapshot) string {
	out := fmt.Sprintf("v%d step%d nmse%x\n", s.Version, s.Step, s.NMSE)
	for i, v := range s.Field.Data {
		out += fmt.Sprintf("%d:%x ", i, v)
	}
	for z := 0; z < 4; z++ {
		out += fmt.Sprintf("\nzone%d:%v", z, s.Supports[z])
	}
	return out
}

// The pipeline must replay float-identically regardless of parallelism:
// the zone fan-out's determinism contract plus seeded RNG everywhere make
// the schedule unobservable.
func TestPipelineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		sd, err := core.New(faultFreeOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer sd.Close()
		if err := sd.SetTruth(driftingPlumes(0, 0)); err != nil {
			t.Fatal(err)
		}
		p, err := New(sd, snapshot.NewRegistry(2), Config{
			Budget: 60, WarmStart: true, Evolve: driftingPlumes,
		})
		if err != nil {
			t.Fatal(err)
		}
		var last *snapshot.Snapshot
		for i := 0; i < 3; i++ {
			last, err = p.Step()
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d window %d: %v", procs, i+1, err)
			}
		}
		return fingerprint(last)
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("pipeline state differs between GOMAXPROCS=1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// Warm-started windows must track the cold pipeline's quality on a
// slowly-varying field: same deployment seed gathers identical
// measurements, so only the decode seeding differs.
func TestWarmStartTracksColdQuality(t *testing.T) {
	run := func(warm bool) []float64 {
		sd, err := core.New(faultFreeOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer sd.Close()
		if err := sd.SetTruth(driftingPlumes(0, 0)); err != nil {
			t.Fatal(err)
		}
		p, err := New(sd, snapshot.NewRegistry(2), Config{
			Budget: 80, WarmStart: warm, Evolve: driftingPlumes,
		})
		if err != nil {
			t.Fatal(err)
		}
		var nmse []float64
		for i := 0; i < 5; i++ {
			s, err := p.Step()
			if err != nil {
				t.Fatal(err)
			}
			nmse = append(nmse, s.NMSE)
		}
		return nmse
	}
	cold := run(false)
	warm := run(true)
	for i := range cold {
		if warm[i] > cold[i]+0.05 {
			t.Fatalf("window %d: warm NMSE %v much worse than cold %v", i+1, warm[i], cold[i])
		}
	}
}

// Bounded staleness under a fault: a fully partitioned broker with its
// infra offline kills its zone, so windows fail and the registry keeps
// serving the last good snapshot (staleness = fault duration, never a
// torn or partial field). Restoring infra resumes publishing on the next
// window.
func TestSnapshotStalenessBoundedUnderPartition(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	h, err := chaos.New(streamOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.SD.SetTruth(driftingPlumes(0, 0)); err != nil {
		t.Fatal(err)
	}
	p, err := New(h.SD, snapshot.NewRegistry(4), Config{
		Budget: 60, WarmStart: true, Evolve: driftingPlumes,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Step(); err != nil {
			t.Fatalf("healthy window: %v", err)
		}
	}
	good := p.reg.Latest()
	if good.Version != 2 {
		t.Fatalf("expected version 2 before fault, got %d", good.Version)
	}

	// Sever zone 0's only broker from its fleet AND its infra fallback.
	h.PartitionBroker("lc0/nc0", 0, 1<<30)
	br, ok := h.SD.BrokerByID("lc0/nc0")
	if !ok {
		t.Fatal("broker lc0/nc0 missing")
	}
	br.SetInfraEnabled(false)
	for i := 0; i < 2; i++ {
		if _, err := p.Step(); err == nil {
			t.Fatal("window succeeded with a dead zone; fault not injected")
		}
	}
	if p.LastErr() == nil {
		t.Fatal("LastErr not recorded")
	}
	stale := p.reg.Latest()
	if stale.Version != good.Version {
		t.Fatalf("registry advanced during fault: %d → %d", good.Version, stale.Version)
	}
	if stale != good {
		t.Fatal("registry swapped a different snapshot during the fault window")
	}

	// Heal: infra back online (nodes still partitioned) — the zone
	// degrades to infrastructure sensing and the service resumes.
	br.SetInfraEnabled(true)
	rec, err := p.Step()
	if err != nil {
		t.Fatalf("post-heal window: %v", err)
	}
	if rec.Version != good.Version+1 {
		t.Fatalf("post-heal version %d, want %d", rec.Version, good.Version+1)
	}
	if p.LastErr() != nil {
		t.Fatalf("LastErr not cleared after recovery: %v", p.LastErr())
	}
	if rec.Shortfall == 0 {
		t.Log("post-heal window had no shortfall (infra covered the full budget)")
	}
}

// A canceled context must surface promptly from RunContext.
func TestRunContextHonorsCancel(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	p, _ := newPipeline(t, Config{Budget: 60, Interval: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}
