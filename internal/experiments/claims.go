package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/basis"
	"repro/internal/contextproc"
	"repro/internal/cs"
	"repro/internal/energy"
	"repro/internal/incentive"
	"repro/internal/netsim"
	"repro/internal/sensor"
)

// --- C1: O(N²) → O(NM) transmissions -------------------------------------------------

// C1Config sizes the transmission-scaling study.
type C1Config struct {
	NodeCounts []int
	K          int // field sparsity per cluster
	Seed       int64
}

// DefaultC1 returns the paper-scale configuration.
func DefaultC1() C1Config {
	return C1Config{NodeCounts: []int{64, 128, 256, 512}, K: 8, Seed: 11}
}

// C1 reproduces the Luo et al. claim the paper builds on: raw gathering
// over a chain of N nodes costs O(N²) value-transmissions (node i relays
// all i upstream readings), while compressive gathering costs O(N·M)
// (every node transmits exactly M combined values). The crossover and
// growth rates are what matter, not absolute counts.
func C1(cfg C1Config) (*Table, error) {
	t := &Table{
		ID:     "C1",
		Title:  "Transmissions: raw chain relay O(N²) vs compressive gathering O(N·M)",
		Header: []string{"N", "M", "raw-transmissions", "cs-transmissions", "ratio", "raw/N^2", "cs/(N*M)"},
	}
	for _, n := range cfg.NodeCounts {
		m := cs.TheoreticalM(cfg.K, n, 1.2)
		// Raw: node i (1-indexed from the far end) transmits i values.
		raw := netsim.New(cfg.Seed)
		if err := raw.Register("sink", nil); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := raw.Register(fmt.Sprintf("n%d", i), nil); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			// Node i forwards its own + all upstream readings one hop: i+1 values.
			to := "sink"
			if i+1 < n {
				to = fmt.Sprintf("n%d", i+1)
			}
			for v := 0; v <= i; v++ {
				if err := raw.Send(netsim.Message{From: fmt.Sprintf("n%d", i), To: to, Payload: []byte("v")}); err != nil {
					return nil, err
				}
			}
		}
		rawTx := raw.Totals().TxMessages

		// Compressive: every node transmits exactly M combined values.
		comp := netsim.New(cfg.Seed)
		if err := comp.Register("sink", nil); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := comp.Register(fmt.Sprintf("n%d", i), nil); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			to := "sink"
			if i+1 < n {
				to = fmt.Sprintf("n%d", i+1)
			}
			for v := 0; v < m; v++ {
				if err := comp.Send(netsim.Message{From: fmt.Sprintf("n%d", i), To: to, Payload: []byte("v")}); err != nil {
					return nil, err
				}
			}
		}
		csTx := comp.Totals().TxMessages
		t.AddRow(d(n), d(m), d(rawTx), d(csTx),
			fmt.Sprintf("%.1fx", float64(rawTx)/float64(csTx)),
			f(float64(rawTx)/float64(n*n)), f(float64(csTx)/float64(n*m)))
	}
	t.AddNote("raw/N² stays ~0.5 (= N(N+1)/2N²) and cs/(N·M) stays 1.0: quadratic vs linear-in-M growth")
	return t, nil
}

// --- C2: M = O(K log N) ------------------------------------------------------------------

// C2Config sizes the measurement-bound study.
type C2Config struct {
	Ns     []int
	Ks     []int
	Trials int
	Seed   int64
}

// DefaultC2 returns the paper-scale configuration.
func DefaultC2() C2Config {
	return C2Config{Ns: []int{128, 256, 512, 1024}, Ks: []int{5, 10}, Trials: 5, Seed: 12}
}

// C2 measures the minimal M for reliable recovery (NMSE < 1% in a
// majority of trials) and compares it against K·log N — the paper's
// "M is in the order of O(K log(N))".
func C2(cfg C2Config) (*Table, error) {
	t := &Table{
		ID:     "C2",
		Title:  "Minimal measurements for recovery vs K·log N",
		Header: []string{"N", "K", "M-min", "K*lnN", "c = M/(K*lnN)"},
	}
	for _, n := range cfg.Ns {
		op, err := basis.CachedOperator(basis.KindDCT, n)
		if err != nil {
			return nil, err
		}
		for _, k := range cfg.Ks {
			mMin := -1
			for m := k + 2; m <= n; m += 2 {
				oks := make([]bool, cfg.Trials)
				err := forEachTrial(cfg.Trials, subSeed(cfg.Seed, int64(n), int64(k), int64(m)),
					func(trial int, rng *rand.Rand) error {
						alpha := make([]float64, n)
						for _, j := range rng.Perm(n)[:k] {
							alpha[j] = 1 + rng.Float64()*2
						}
						x := make([]float64, n)
						op.Apply(x, alpha)
						locs, err := cs.RandomLocations(rng, n, m)
						if err != nil {
							return err
						}
						y, err := cs.Measure(x, locs, rng, nil)
						if err != nil {
							return err
						}
						res, err := cs.OMPOp(op, locs, y, k, 1e-10)
						if err != nil {
							return nil // decode failure counts as a miss, not an error
						}
						oks[trial] = cs.NMSE(x, res.Xhat) < 0.01
						return nil
					})
				if err != nil {
					return nil, err
				}
				ok := 0
				for _, hit := range oks {
					if hit {
						ok++
					}
				}
				if ok*2 > cfg.Trials {
					mMin = m
					break
				}
			}
			klogn := float64(k) * math.Log(float64(n))
			t.AddRow(d(n), d(k), d(mMin), f2(klogn), f2(float64(mMin)/klogn))
		}
	}
	t.AddNote("the fitted constant c should stay roughly flat across N, confirming M ~ O(K log N)")
	return t, nil
}

// --- C3: >80% energy savings via collaboration ---------------------------------------------

// C3Config sizes the collaborative-energy study.
type C3Config struct {
	Nodes  int
	Rounds int // sensing rounds (e.g. one per minute)
	M      int // measurements per collaborative round
	Seed   int64
}

// DefaultC3 returns the paper-scale configuration: a smooth field over one
// NanoCloud's small area has effective sparsity K≈2, so M=4 random
// sensors per round suffice (≈ K·log N for N=25).
func DefaultC3() C3Config { return C3Config{Nodes: 25, Rounds: 60, M: 4, Seed: 13} }

// C3 tests the paper's §5 claim (after Sheng et al. [24]) that
// "collaborative sensing can achieve over 80% power savings compared to
// traditional sensing without collaborations": baseline, every node takes
// a GPS-grade reading and uploads it every round; collaborative, the
// broker solicits only M of N nodes per round and shares the result.
func C3(cfg C3Config) (*Table, error) {
	model := energy.DefaultModel()
	perReadingBytes := 24 // timestamped reading

	// Baseline: N nodes × R rounds, each samples GPS + uploads.
	baseline := energy.NewMeter(model)
	for i := 0; i < cfg.Nodes*cfg.Rounds; i++ {
		if err := baseline.ChargeSamples(sensor.GPS, 1); err != nil {
			return nil, err
		}
		if err := baseline.ChargeTx(energy.RadioWiFi, perReadingBytes); err != nil {
			return nil, err
		}
	}

	// Collaborative: per round only M nodes sample+upload; every node
	// receives the broker's fused result broadcast.
	collab := energy.NewMeter(model)
	fusedBytes := perReadingBytes * cfg.M
	for r := 0; r < cfg.Rounds; r++ {
		for i := 0; i < cfg.M; i++ {
			if err := collab.ChargeSamples(sensor.GPS, 1); err != nil {
				return nil, err
			}
			if err := collab.ChargeTx(energy.RadioWiFi, perReadingBytes); err != nil {
				return nil, err
			}
		}
		for i := 0; i < cfg.Nodes; i++ {
			if err := collab.ChargeRx(energy.RadioWiFi, fusedBytes); err != nil {
				return nil, err
			}
		}
	}
	sav := energy.SavingsPercent(baseline.TotalMJ(), collab.TotalMJ())
	t := &Table{
		ID:     "C3",
		Title:  "Collaborative vs solo continuous sensing energy (target: >80% savings)",
		Header: []string{"scheme", "total-mJ", "per-node-mJ", "savings"},
	}
	t.AddRow("solo continuous", f2(baseline.TotalMJ()), f2(baseline.TotalMJ()/float64(cfg.Nodes)), "-")
	t.AddRow("collaborative M-of-N", f2(collab.TotalMJ()), f2(collab.TotalMJ()/float64(cfg.Nodes)), pct(sav))
	t.AddNote("%d nodes, %d rounds, M=%d sampled per round; every node still receives the fused field", cfg.Nodes, cfg.Rounds, cfg.M)
	return t, nil
}

// --- C4: compressive IsIndoor ----------------------------------------------------------------

// C4Config sizes the IsIndoor duty-cycling study.
type C4Config struct {
	Windows   int // number of 64-sample windows (1 sample/min → ~1 h each)
	WindowLen int
	M         int // compressive samples per window
	Seed      int64
}

// DefaultC4 returns the paper-scale configuration (~1 day at 1 fix/min,
// 25% duty cycle).
func DefaultC4() C4Config { return C4Config{Windows: 22, WindowLen: 64, M: 16, Seed: 14} }

// C4 reproduces the paper's energy-efficient context example: derive the
// IsIndoor flag from compressively sampled GPS/WiFi time series "with
// similar accuracy while saving energy consumptions" versus continuous
// uniform measurement.
func C4(cfg C4Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	indoor := sensor.AlternatingSchedule(1800) // 30 min indoors, 30 min out
	gpsModel := sensor.GPSModel(indoor)
	wifiModel := sensor.WiFiModel(indoor)
	phi, err := basis.CachedOperator(basis.KindHaar, cfg.WindowLen)
	if err != nil {
		return nil, err
	}
	model := energy.DefaultModel()
	contMeter := energy.NewMeter(model)
	compMeter := energy.NewMeter(model)

	total, contOK, compOK := 0, 0, 0
	minute := 60.0
	for w := 0; w < cfg.Windows; w++ {
		// Ground-truth per-minute signals for this window.
		sats := make([]float64, cfg.WindowLen)
		acc := make([]float64, cfg.WindowLen)
		rssi := make([]float64, cfg.WindowLen)
		aps := make([]float64, cfg.WindowLen)
		truthIndoor := make([]bool, cfg.WindowLen)
		for i := 0; i < cfg.WindowLen; i++ {
			tt := (float64(w*cfg.WindowLen) + float64(i)) * minute
			sats[i] = gpsModel(tt, 0)
			acc[i] = gpsModel(tt, 1)
			rssi[i] = wifiModel(tt, 0)
			aps[i] = wifiModel(tt, 1)
			truthIndoor[i] = indoor(tt)
		}
		// Continuous: a GPS fix + WiFi scan every minute.
		if err := contMeter.ChargeSamples(sensor.GPS, cfg.WindowLen); err != nil {
			return nil, err
		}
		if err := contMeter.ChargeSamples(sensor.WiFi, cfg.WindowLen); err != nil {
			return nil, err
		}
		// Compressive: M fixes/scans per window, reconstruct each series.
		if err := compMeter.ChargeSamples(sensor.GPS, cfg.M); err != nil {
			return nil, err
		}
		if err := compMeter.ChargeSamples(sensor.WiFi, cfg.M); err != nil {
			return nil, err
		}
		locs, err := cs.RandomLocations(rng, cfg.WindowLen, cfg.M)
		if err != nil {
			return nil, err
		}
		recon := func(sig []float64) ([]float64, error) {
			y, err := cs.Measure(sig, locs, rng, []float64{0.2})
			if err != nil {
				return nil, err
			}
			res, err := cs.OMPOp(phi, locs, y, cfg.M/2, 1e-8)
			if err != nil {
				return nil, err
			}
			return res.Xhat, nil
		}
		satsHat, err := recon(sats)
		if err != nil {
			return nil, err
		}
		accHat, err := recon(acc)
		if err != nil {
			return nil, err
		}
		rssiHat, err := recon(rssi)
		if err != nil {
			return nil, err
		}
		apsHat, err := recon(aps)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.WindowLen; i++ {
			total++
			// Continuous sampling sees the same sensor noise level.
			contFlag := contextproc.IsIndoor(contextproc.EnvReading{
				GPSSatellites: sats[i] + 0.2*rng.NormFloat64(),
				GPSAccuracyM:  acc[i] + 0.2*rng.NormFloat64(),
				WiFiRSSIdBm:   rssi[i] + 0.2*rng.NormFloat64(),
				WiFiAPCount:   aps[i] + 0.2*rng.NormFloat64(),
			})
			compFlag := contextproc.IsIndoor(contextproc.EnvReading{
				GPSSatellites: satsHat[i], GPSAccuracyM: accHat[i],
				WiFiRSSIdBm: rssiHat[i], WiFiAPCount: apsHat[i],
			})
			if contFlag == truthIndoor[i] {
				contOK++
			}
			if compFlag == truthIndoor[i] {
				compOK++
			}
		}
	}
	sav := energy.SavingsPercent(contMeter.TotalMJ(), compMeter.TotalMJ())
	t := &Table{
		ID:     "C4",
		Title:  "IsIndoor: continuous vs temporal-compressive GPS/WiFi sampling",
		Header: []string{"method", "accuracy", "gps-fixes", "energy-mJ", "savings"},
	}
	t.AddRow("continuous", pct(100*float64(contOK)/float64(total)),
		d(cfg.Windows*cfg.WindowLen), f2(contMeter.TotalMJ()), "-")
	t.AddRow(fmt.Sprintf("compressive M=%d/%d", cfg.M, cfg.WindowLen),
		pct(100*float64(compOK)/float64(total)),
		d(cfg.Windows*cfg.M), f2(compMeter.TotalMJ()), pct(sav))
	t.AddNote("%d windows of %d per-minute fixes; Haar basis exploits the piecewise-constant indoor/outdoor signal", cfg.Windows, cfg.WindowLen)
	return t, nil
}

// --- C5: IsDriving from 30/256 samples ----------------------------------------------------------

// C5Config sizes the IsDriving study.
type C5Config struct {
	Ms     []int
	Trials int
	Seed   int64
}

// DefaultC5 returns the paper's setting plus a sweep around it.
func DefaultC5() C5Config { return C5Config{Ms: []int{10, 20, 30, 45, 64}, Trials: 12, Seed: 15} }

// C5 tests the paper's concrete example: the IsDriving context recovered
// from 30 of 256 accelerometer samples matches full-window classification.
func C5(cfg C5Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	phi, err := basis.CachedOperator(basis.KindDFT, 256)
	if err != nil {
		return nil, err
	}
	scens := []sensor.MotionScenario{sensor.MotionIdle, sensor.MotionWalking, sensor.MotionDriving}
	t := &Table{
		ID:     "C5",
		Title:  "IsDriving context from M of 256 accelerometer samples",
		Header: []string{"M", "context-agreement", "mean-NMSE"},
	}
	for _, m := range cfg.Ms {
		pipe, err := contextproc.NewPipeline(phi, m, minInt(8, m))
		if err != nil {
			return nil, err
		}
		agree, total, nmseSum := 0, 0, 0.0
		for trial := 0; trial < cfg.Trials; trial++ {
			scen := scens[trial%len(scens)]
			model, err := sensor.AccelModel(scen)
			if err != nil {
				return nil, err
			}
			probe, err := sensor.NewProbe("a", sensor.Accelerometer, 3,
				sensor.Config{RateHz: 64, NoiseSigma: 0.02, Seed: rng.Int63()}, model)
			if err != nil {
				return nil, err
			}
			window, err := probe.CollectAxis(256, 2)
			if err != nil {
				return nil, err
			}
			comp, full, nmse, err := pipe.ClassifyCompressive(window, 64, rng)
			if err != nil {
				return nil, err
			}
			total++
			if comp == full {
				agree++
			}
			nmseSum += nmse
		}
		t.AddRow(d(m), pct(100*float64(agree)/float64(total)), f(nmseSum/float64(cfg.Trials)))
	}
	t.AddNote("paper highlights M=30: context agreement should be at or near 100%% there and degrade for small M")
	return t, nil
}

// --- C6: incentive mechanisms ----------------------------------------------------------------------

// C6Config sizes the incentive comparison.
type C6Config struct {
	Candidates int
	K          int
	Budget     float64
	Cells      int
	Seed       int64
}

// DefaultC6 returns the paper-scale configuration.
func DefaultC6() C6Config { return C6Config{Candidates: 100, K: 15, Budget: 60, Cells: 64, Seed: 16} }

// C6 reproduces the comparative incentive-mechanism study the paper cites
// (Duan et al.): recruitment, sealed-bid second-price, and dynamic-price
// reverse auction on one candidate pool.
func C6(cfg C6Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cands := make([]incentive.Candidate, cfg.Candidates)
	for i := range cands {
		cost := 0.5 + rng.Float64()*3.5
		cover := make([]int, 1+rng.Intn(5))
		for j := range cover {
			cover[j] = rng.Intn(cfg.Cells)
		}
		cands[i] = incentive.Candidate{
			ID: fmt.Sprintf("u%03d", i), Cost: cost,
			Bid: cost * (1 + 0.8*rng.Float64()), Coverage: cover,
		}
	}
	outcomes, err := incentive.Compare(rng, cands, cfg.K, cfg.Budget)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "C6",
		Title:  "Incentive mechanisms: cost, coverage, participation",
		Header: []string{"mechanism", "total-cost", "covered-cells", "winners"},
	}
	for _, o := range outcomes {
		covered := d(o.CoveredCells)
		if o.Mechanism == "reverse-dynamic" {
			covered = "-" // steady-state round metric; coverage not tracked per round
		}
		t.AddRow(o.Mechanism, f2(o.TotalCost), covered, d(o.Winners))
	}
	t.AddNote("%d candidates, task size k=%d, recruitment budget %.0f; dynamic auction reports steady-state round cost", cfg.Candidates, cfg.K, cfg.Budget)
	return t, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
