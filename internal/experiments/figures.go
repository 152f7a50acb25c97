package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/netsim"
	"repro/internal/sensor"
)

// --- F1: hierarchy scalability ---------------------------------------------------

// Fig1Config sizes the hierarchy-vs-flat comparison.
type Fig1Config struct {
	NodeCounts []int // network sizes to sweep
	LCs        int   // local clouds in the hierarchy
	NCsPerLC   int   // NanoClouds per local cloud
	Seed       int64
}

// DefaultFig1 returns the paper-scale configuration.
func DefaultFig1() Fig1Config {
	return Fig1Config{NodeCounts: []int{256, 512, 1024}, LCs: 4, NCsPerLC: 4, Seed: 1}
}

// Fig1 reproduces the Fig. 1 architecture argument quantitatively: with a
// flat single sink, the sink's receive load grows linearly with N and it
// is the lone bottleneck; the multi-tiered hierarchy spreads the load so
// the most-loaded element handles only ~N/(LCs·NCs) messages plus the
// small inter-tier traffic.
func Fig1(cfg Fig1Config) (*Table, error) {
	t := &Table{
		ID:     "F1",
		Title:  "Multi-tiered hierarchy vs flat single sink (per-round message load)",
		Header: []string{"nodes", "flat-sink-load", "hier-max-load", "reduction"},
	}
	for _, n := range cfg.NodeCounts {
		// Flat: every node sends one reading to the sink.
		flat := netsim.New(cfg.Seed)
		if err := flat.Register("sink", nil); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("n%d", i)
			if err := flat.Register(id, nil); err != nil {
				return nil, err
			}
			if err := flat.Send(netsim.Message{From: id, To: "sink", Payload: []byte("r")}); err != nil {
				return nil, err
			}
		}
		_, flatLoad := flat.MaxRx()

		// Hierarchy: node → NC broker → LC head → public cloud.
		hier := netsim.New(cfg.Seed)
		if err := hier.Register("cloud", nil); err != nil {
			return nil, err
		}
		ncCount := cfg.LCs * cfg.NCsPerLC
		for lc := 0; lc < cfg.LCs; lc++ {
			if err := hier.Register(fmt.Sprintf("lc%d", lc), nil); err != nil {
				return nil, err
			}
			for nc := 0; nc < cfg.NCsPerLC; nc++ {
				if err := hier.Register(fmt.Sprintf("lc%d/nc%d", lc, nc), nil); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("n%d", i)
			if err := hier.Register(id, nil); err != nil {
				return nil, err
			}
			ncIdx := i % ncCount
			brokerID := fmt.Sprintf("lc%d/nc%d", ncIdx/cfg.NCsPerLC, ncIdx%cfg.NCsPerLC)
			if err := hier.Send(netsim.Message{From: id, To: brokerID, Payload: []byte("r")}); err != nil {
				return nil, err
			}
		}
		// Brokers aggregate up to LC heads, heads to the cloud.
		for lc := 0; lc < cfg.LCs; lc++ {
			for nc := 0; nc < cfg.NCsPerLC; nc++ {
				if err := hier.Send(netsim.Message{
					From: fmt.Sprintf("lc%d/nc%d", lc, nc), To: fmt.Sprintf("lc%d", lc),
					Payload: []byte("agg"),
				}); err != nil {
					return nil, err
				}
			}
			if err := hier.Send(netsim.Message{From: fmt.Sprintf("lc%d", lc), To: "cloud", Payload: []byte("agg")}); err != nil {
				return nil, err
			}
		}
		_, hierLoad := hier.MaxRx()
		t.AddRow(d(n), d(flatLoad), d(hierLoad),
			fmt.Sprintf("%.1fx", float64(flatLoad)/float64(hierLoad)))
	}
	t.AddNote("hierarchy: %d LCs x %d NCs; flat sink load grows with N, hierarchical max load stays ~N/%d",
		cfg.LCs, cfg.NCsPerLC, cfg.LCs*cfg.NCsPerLC)
	return t, nil
}

// --- F2: NanoCloud round trip ------------------------------------------------------

// Fig2Config sizes the broker↔node orchestration measurement.
type Fig2Config struct {
	Nodes int
	M     int
	Seed  int64
}

// DefaultFig2 returns the paper-scale configuration.
func DefaultFig2() Fig2Config { return Fig2Config{Nodes: 32, M: 64, Seed: 2} }

// Fig2 exercises the Fig. 2 NanoCloud loop end to end: command →
// measure → telemetry → reconstruct, over the middleware bus, reporting
// orchestration traffic and reconstruction quality. (Wall-clock latency
// deliberately does not appear: experiment tables are byte-identical
// across runs, and real orchestration latency lives in the
// span.broker.gather.ms obs histogram instead.)
func Fig2(cfg Fig2Config) (*Table, error) {
	opts := core.Options{
		FieldW: 16, FieldH: 16, ZoneRows: 1, ZoneCols: 1,
		NCsPerZone: 1, NodesPerNC: cfg.Nodes, Seed: cfg.Seed,
	}
	sd, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	defer sd.Close()
	truth := field.GenPlumes(16, 16, 12, []field.Plume{{Row: 6, Col: 9, Sigma: 3, Amplitude: 25}})
	if err := sd.SetTruth(truth); err != nil {
		return nil, err
	}
	res, err := sd.RunCampaign(core.CampaignConfig{TotalM: cfg.M})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F2",
		Title:  "NanoCloud broker orchestration round trip (Fig. 2 components)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("registered nodes", d(cfg.Nodes))
	t.AddRow("measurement budget M", d(cfg.M))
	t.AddRow("mobile readings used", d(res.NodesUsed))
	t.AddRow("infrastructure fallback", d(res.InfraUsed))
	t.AddRow("privacy denials", d(res.Denied))
	t.AddRow("reconstruction NMSE", f(res.GlobalNMSE))
	recordNMSE("f2", "global", res.GlobalNMSE)
	t.AddRow("bus payload bytes", fmt.Sprintf("%d", sd.BusBytes()))
	t.AddRow("node energy (mJ)", f2(sd.TotalEnergyMJ()))
	return t, nil
}

// --- F3: probe inventory -------------------------------------------------------------

// Fig3 enumerates the Fig. 3 probe complement of one simulated handset and
// validates the fused virtual sensors (compass) against ground truth.
func Fig3(seed int64) (*Table, error) {
	reg, err := sensor.StandardPhone("phone", seed, sensor.ProfileMidrange,
		sensor.MotionWalking, sensor.AlternatingSchedule(600))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F3",
		Title:  "Physical sensing probes + virtual sensor fusion (Fig. 3)",
		Header: []string{"probe", "kind", "axes", "rate(Hz)", "noise-sigma"},
	}
	for _, p := range reg.Probes() {
		t.AddRow(p.Name(), p.Kind().String(), d(p.Axes()),
			fmt.Sprintf("%g", p.Config().RateHz), fmt.Sprintf("%g", p.NoiseSigma()))
	}
	// Virtual compass: fuse accel+mag, compare with the known heading model.
	headingTruth := math.Pi / 3
	accel, err := sensor.NewProbe("v/accel", sensor.Accelerometer, 3,
		sensor.Config{RateHz: 16, Seed: seed},
		func(tt float64, axis int) float64 {
			if axis == 2 {
				return 9.81
			}
			return 0
		})
	if err != nil {
		return nil, err
	}
	mag, err := sensor.NewProbe("v/mag", sensor.Magnetometer, 3,
		sensor.Config{RateHz: 16, NoiseSigma: 0.4, Seed: seed + 1},
		sensor.MagModel(func(tt float64) float64 { return headingTruth }))
	if err != nil {
		return nil, err
	}
	compass, err := sensor.NewCompassProbe("v/compass", accel, mag)
	if err != nil {
		return nil, err
	}
	sum, n := 0.0, 64
	for i := 0; i < n; i++ {
		h, err := compass.Next()
		if err != nil {
			return nil, err
		}
		sum += h
	}
	errRad := math.Abs(sum/float64(n) - headingTruth)
	t.AddNote("virtual compass (accel+mag fusion): mean heading error %.4f rad over %d samples", errRad, n)
	t.AddNote("11 physical probes + fused virtual sensors (orientation/compass/inclinometer) + context probes in internal/contextproc")
	return t, nil
}

// --- F4: reconstruction accuracy vs measurements ---------------------------------------

// Fig4Config sizes the headline reconstruction sweep.
type Fig4Config struct {
	N      int   // window length (paper: 256)
	Ms     []int // measurement counts to sweep (paper highlights 30)
	K      int   // OMP sparsity budget
	Trials int
	Seed   int64
}

// DefaultFig4 returns the paper's setting.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		N:  256,
		Ms: []int{8, 12, 16, 20, 24, 30, 40, 56, 80, 112, 128},
		K:  8, Trials: 10, Seed: 4,
	}
}

// Fig4 reproduces the paper's only quantitative figure: reconstruction
// accuracy of a 256-sample accelerometer signal as a function of the
// number of random measurements. The paper reports good recovery from 30
// random samples; the curve should rise steeply and flatten past the
// M ≈ O(K log N) knee.
func Fig4(cfg Fig4Config) (*Table, error) {
	model, err := sensor.AccelModel(sensor.MotionDriving)
	if err != nil {
		return nil, err
	}
	phi, err := basis.CachedOperator(basis.KindDFT, cfg.N)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F4",
		Title:  fmt.Sprintf("Reconstruction accuracy vs #measurements (N=%d accelerometer window)", cfg.N),
		Header: []string{"M", "compression", "NMSE", "accuracy", "snr(dB)"},
	}
	for _, m := range cfg.Ms {
		nmses := make([]float64, cfg.Trials)
		accs := make([]float64, cfg.Trials)
		snrs := make([]float64, cfg.Trials)
		err := forEachTrial(cfg.Trials, subSeed(cfg.Seed, int64(m)), func(trial int, rng *rand.Rand) error {
			probe, err := sensor.NewProbe("a", sensor.Accelerometer, 3,
				sensor.Config{RateHz: 64, NoiseSigma: 0.02, Seed: rng.Int63()}, model)
			if err != nil {
				return err
			}
			window, err := probe.CollectAxis(cfg.N, 2)
			if err != nil {
				return err
			}
			locs, err := cs.RandomLocations(rng, cfg.N, m)
			if err != nil {
				return err
			}
			y, err := cs.Measure(window, locs, rng, nil)
			if err != nil {
				return err
			}
			res, err := cs.OMPOp(phi, locs, y, cfg.K, 1e-9)
			if err != nil {
				return err
			}
			nmses[trial] = cs.NMSE(window, res.Xhat)
			accs[trial] = cs.Accuracy(window, res.Xhat)
			snr := cs.SNRdB(window, res.Xhat)
			if math.IsInf(snr, 1) {
				snr = 60
			}
			snrs[trial] = snr
			return nil
		})
		if err != nil {
			return nil, err
		}
		nmseSum, accSum, snrSum := 0.0, 0.0, 0.0
		for trial := 0; trial < cfg.Trials; trial++ {
			nmseSum += nmses[trial]
			accSum += accs[trial]
			snrSum += snrs[trial]
		}
		tr := float64(cfg.Trials)
		recordNMSE("f4", fmt.Sprintf("m%d", m), nmseSum/tr)
		t.AddRow(d(m), fmt.Sprintf("%.1fx", cs.CompressionRatio(cfg.N, m)),
			f(nmseSum/tr), f(accSum/tr), f2(snrSum/tr))
	}
	t.AddNote("paper: 256-sample accelerometer signal recovered from 30 random samples for the IsDriving context")
	t.AddNote("theoretical sufficient M = O(K log N) = %d (c=1, K=%d)", cs.TheoreticalM(cfg.K, cfg.N, 1), cfg.K)
	return t, nil
}

// --- F5: adaptive per-zone compression --------------------------------------------------

// Fig5Config sizes the zoned spatio-temporal field experiment.
type Fig5Config struct {
	FieldW, FieldH     int
	ZoneRows, ZoneCols int
	NodesPerNC         int
	TotalM             int
	Trials             int
	Seed               int64
}

// DefaultFig5 returns the paper-scale configuration.
func DefaultFig5() Fig5Config {
	return Fig5Config{FieldW: 32, FieldH: 32, ZoneRows: 4, ZoneCols: 4,
		NodesPerNC: 4, TotalM: 220, Trials: 3, Seed: 5}
}

// Fig5 reproduces the Fig. 5 story: a spatially heterogeneous field is
// gathered zone by zone, with the middleware choosing each zone's
// compression ratio from its local sparsity. At equal total budget the
// adaptive plan beats the uniform (global-threshold) baseline.
func Fig5(cfg Fig5Config) (*Table, error) {
	t := &Table{
		ID:     "F5",
		Title:  "Per-zone adaptive compression vs uniform budget (Fig. 5)",
		Header: []string{"trial", "uniform-NMSE", "adaptive-NMSE", "improvement"},
	}
	uniNMSESum, adaNMSESum := 0.0, 0.0
	for trial := 0; trial < cfg.Trials; trial++ {
		sd, err := core.New(core.Options{
			FieldW: cfg.FieldW, FieldH: cfg.FieldH,
			ZoneRows: cfg.ZoneRows, ZoneCols: cfg.ZoneCols,
			NCsPerZone: 1, NodesPerNC: cfg.NodesPerNC,
			Seed: cfg.Seed + int64(trial)*101,
		})
		if err != nil {
			return nil, err
		}
		// Heterogeneous field: hotspots concentrated in a few zones. The
		// sensor layer adds measurement noise; the field itself is clean so
		// the zones' local sparsity is well defined.
		truth := field.GenPlumes(cfg.FieldW, cfg.FieldH, 12, []field.Plume{
			{Row: 5, Col: 5, Sigma: 2.0, Amplitude: 40},
			{Row: 7, Col: 3, Sigma: 1.5, Amplitude: 25},
			{Row: 26, Col: 27, Sigma: 2.5, Amplitude: 30},
		})
		if err := sd.SetTruth(truth); err != nil {
			sd.Close()
			return nil, err
		}
		uni, err := sd.RunCampaign(core.CampaignConfig{TotalM: cfg.TotalM})
		if err != nil {
			sd.Close()
			return nil, err
		}
		ada, err := sd.RunCampaign(core.CampaignConfig{
			TotalM: cfg.TotalM, Adaptive: true, Prior: truth,
		})
		if err != nil {
			sd.Close()
			return nil, err
		}
		sd.Close()
		uniNMSESum += uni.GlobalNMSE
		adaNMSESum += ada.GlobalNMSE
		t.AddRow(d(trial), f(uni.GlobalNMSE), f(ada.GlobalNMSE),
			fmt.Sprintf("%.1fx", uni.GlobalNMSE/math.Max(ada.GlobalNMSE, 1e-12)))
	}
	tr := float64(cfg.Trials)
	recordNMSE("f5", "uniform", uniNMSESum/tr)
	recordNMSE("f5", "adaptive", adaNMSESum/tr)
	t.AddNote("mean uniform NMSE %.4f vs adaptive %.4f at equal total budget M=%d on a %dx%d field, %dx%d zones",
		uniNMSESum/tr, adaNMSESum/tr, cfg.TotalM, cfg.FieldH, cfg.FieldW, cfg.ZoneRows, cfg.ZoneCols)
	return t, nil
}

// --- F6: the CHS algorithm ---------------------------------------------------------------

// Fig6Config sizes the algorithm study.
type Fig6Config struct {
	N, M, K int
	Trials  int
	Seed    int64
}

// DefaultFig6 returns the paper-scale configuration.
func DefaultFig6() Fig6Config { return Fig6Config{N: 256, M: 64, K: 8, Trials: 10, Seed: 6} }

// Fig6 exercises the Compressive Heterogeneous Sensing algorithm of
// Fig. 6: convergence of the sensor residual across iterations, and the
// OLS-vs-GLS step (e) comparison under heterogeneous sensor noise.
func Fig6(cfg Fig6Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	op, err := basis.CachedOperator(basis.KindDCT, cfg.N)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F6",
		Title:  "CHS algorithm: convergence and OLS vs GLS under heterogeneous sensors",
		Header: []string{"metric", "OLS", "GLS"},
	}
	olsNMSESum, glsNMSESum := 0.0, 0.0
	var iterOLS, iterGLS int
	for trial := 0; trial < cfg.Trials; trial++ {
		alpha := make([]float64, cfg.N)
		for _, j := range rng.Perm(cfg.N)[:cfg.K] {
			alpha[j] = 4 + rng.Float64()*4
		}
		x := make([]float64, cfg.N)
		op.Apply(x, alpha)
		locs, err := cs.RandomLocations(rng, cfg.N, cfg.M)
		if err != nil {
			return nil, err
		}
		sigmas := make([]float64, cfg.M)
		for i := range sigmas {
			if i%3 == 0 {
				sigmas[i] = 0.35 // budget handset
			} else {
				sigmas[i] = 0.02 // flagship
			}
		}
		y, err := cs.Measure(x, locs, rng, sigmas)
		if err != nil {
			return nil, err
		}
		ols, err := cs.CHSOp(op, locs, y, cs.CHSOptions{MaxSupport: cfg.K, Tol: 1e-6})
		if err != nil {
			return nil, err
		}
		gls, err := cs.CHSOp(op, locs, y, cs.CHSOptions{
			MaxSupport: cfg.K, Tol: 1e-6, Sigmas: sigmas,
		})
		if err != nil {
			return nil, err
		}
		olsNMSESum += cs.NMSE(x, ols.Xhat)
		glsNMSESum += cs.NMSE(x, gls.Xhat)
		iterOLS += ols.Iterations
		iterGLS += gls.Iterations
	}
	tr := float64(cfg.Trials)
	recordNMSE("f6", "ols", olsNMSESum/tr)
	recordNMSE("f6", "gls", glsNMSESum/tr)
	t.AddRow("mean NMSE", f(olsNMSESum/tr), f(glsNMSESum/tr))
	t.AddRow("mean iterations", f2(float64(iterOLS)/tr), f2(float64(iterGLS)/tr))
	t.AddRow("GLS improvement", "-", fmt.Sprintf("%.1fx", (olsNMSESum/tr)/math.Max(glsNMSESum/tr, 1e-12)))
	t.AddNote("N=%d, M=%d, K=%d, 1/3 of sensors are noisy budget handsets (sigma 0.35 vs 0.02)", cfg.N, cfg.M, cfg.K)
	return t, nil
}
