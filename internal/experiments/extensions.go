package experiments

// Extension experiments beyond the paper's artifacts: the optional /
// future-work directions its §5 sketches, made concrete. A4 compares OMP
// with the ℓ1 program, A5 quantifies joint spatio-temporal decoding, A6 evaluates
// adaptive sampling, C7 the heterogeneous-radio selection, and C8 the
// coverage metrics under different mobility models.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/basis"
	"repro/internal/coverage"
	"repro/internal/cs"
	"repro/internal/energy"
	"repro/internal/field"
	"repro/internal/mobility"
	"repro/internal/opportunistic"
	"repro/internal/schedule"
	"repro/internal/sensor"
)

// --- A4: decoder comparison -------------------------------------------------------

// A4Config sizes the decoder shoot-out.
type A4Config struct {
	N, M, K int
	Noise   float64
	Trials  int
	Seed    int64
}

// DefaultA4 returns the paper-scale configuration.
func DefaultA4() A4Config { return A4Config{N: 128, M: 40, K: 6, Noise: 0.02, Trials: 10, Seed: 24} }

// A4 compares OMP (the paper's Eq. 13 solver) and BPDN (the Eq. 9 ℓ1
// program, constrained to the readings' noise floor NoiseTol = σ√M) on
// the same noisy sparse-recovery instances.
func A4(cfg A4Config) (*Table, error) {
	op, err := basis.CachedOperator(basis.KindDCT, cfg.N)
	if err != nil {
		return nil, err
	}
	type decoder struct {
		name string
		run  func(locs []int, y []float64) (*cs.Result, error)
	}
	decoders := []decoder{
		{"omp", func(locs []int, y []float64) (*cs.Result, error) {
			return cs.OMPOp(op, locs, y, cfg.K, 1e-9)
		}},
		{"bpdn", func(locs []int, y []float64) (*cs.Result, error) {
			sigmas := make([]float64, len(y))
			for i := range sigmas {
				sigmas[i] = cfg.Noise
			}
			return cs.BPDN(op, locs, y, cs.NoiseTol(sigmas))
		}},
	}
	nmse := make([][]float64, cfg.Trials)
	failed := make([][]bool, cfg.Trials)
	err = forEachTrial(cfg.Trials, subSeed(cfg.Seed, 4), func(trial int, rng *rand.Rand) error {
		nmse[trial] = make([]float64, len(decoders))
		failed[trial] = make([]bool, len(decoders))
		alpha := make([]float64, cfg.N)
		for _, j := range rng.Perm(cfg.N)[:cfg.K] {
			alpha[j] = 2 + rng.Float64()*3
		}
		x := make([]float64, cfg.N)
		op.Apply(x, alpha)
		locs, err := cs.RandomLocations(rng, cfg.N, cfg.M)
		if err != nil {
			return err
		}
		y, err := cs.Measure(x, locs, rng, []float64{cfg.Noise})
		if err != nil {
			return err
		}
		for i, dec := range decoders {
			res, err := dec.run(locs, y)
			if err != nil {
				failed[trial][i] = true
				continue
			}
			nmse[trial][i] = cs.NMSE(x, res.Xhat)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nmseSums := make([]float64, len(decoders))
	fails := make([]int, len(decoders))
	for trial := 0; trial < cfg.Trials; trial++ {
		for i := range decoders {
			if failed[trial][i] {
				fails[i]++
			} else {
				nmseSums[i] += nmse[trial][i]
			}
		}
	}
	t := &Table{
		ID:     "A4",
		Title:  "Sparse decoder comparison at equal budget",
		Header: []string{"decoder", "mean-NMSE", "failures"},
	}
	for i, dec := range decoders {
		ok := cfg.Trials - fails[i]
		mean := math.NaN()
		if ok > 0 {
			mean = nmseSums[i] / float64(ok)
		}
		recordNMSE("a4", dec.name, mean)
		t.AddRow(dec.name, f(mean), d(fails[i]))
	}
	t.AddNote("N=%d, M=%d, K=%d, noise sigma %.2f; BPDN eps = NoiseTol = sigma*sqrt(M)", cfg.N, cfg.M, cfg.K, cfg.Noise)
	return t, nil
}

// --- A5: joint spatio-temporal decoding --------------------------------------------

// A5Config sizes the spatio-temporal study.
type A5Config struct {
	W, H, Steps int
	Ms          []int
	Drift       float64
	Seed        int64
}

// DefaultA5 returns the paper-scale configuration.
func DefaultA5() A5Config {
	return A5Config{W: 12, H: 12, Steps: 8, Ms: []int{8, 12, 16, 30}, Drift: 0.15, Seed: 25}
}

// A5 quantifies the paper's "jointly perform spatio-temporal compressive
// sensing": a drifting plume decoded per snapshot vs jointly in the
// temporal⊗spatial basis at the same per-step budget.
func A5(cfg A5Config) (*Table, error) {
	proto := field.New(cfg.W, cfg.H)
	phi, err := proto.Operator2D(basis.KindDCT)
	if err != nil {
		return nil, err
	}
	seq := make([][]float64, cfg.Steps)
	for step := range seq {
		f := field.GenPlumes(cfg.W, cfg.H, 10, []field.Plume{{
			Row:   4 + cfg.Drift*float64(step),
			Col:   6 + cfg.Drift*0.8*float64(step),
			Sigma: 2.2, Amplitude: 25,
		}})
		seq[step] = f.Vector()
	}
	t := &Table{
		ID:     "A5",
		Title:  "Per-snapshot vs joint spatio-temporal decoding (equal budget)",
		Header: []string{"M/step", "per-step-NMSE", "joint-NMSE", "improvement"},
	}
	perStep := make([]float64, len(cfg.Ms))
	joint := make([]float64, len(cfg.Ms))
	err = forEach(len(cfg.Ms), func(mi int) error {
		m := cfg.Ms[mi]
		var err error
		if perStep[mi], err = recoverSequence(phi, seq, m, cfg.Seed); err != nil {
			return err
		}
		joint[mi], err = recoverSpatioTemporal(phi, seq, m, cfg.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	for mi, m := range cfg.Ms {
		s, j := perStep[mi], joint[mi]
		t.AddRow(d(m), f(s), f(j), fmt.Sprintf("%.1fx", s/math.Max(j, 1e-12)))
	}
	t.AddNote("%d-step drifting plume on a %dx%d grid; joint basis = spatial DCT ⊗ temporal DCT", cfg.Steps, cfg.H, cfg.W)
	return t, nil
}

// recoverSequence is A5's per-snapshot baseline: it samples each field of
// seq (a column-stacked vector of length phi.Dim()) at m random locations
// without noise, decodes each step alone by OMP with a sparsity budget of
// m/3, and returns the mean NMSE over the steps.
func recoverSequence(phi basis.Operator, seq [][]float64, m int, seed int64) (float64, error) {
	n, err := checkSequence(phi, seq, m)
	if err != nil {
		return 0, err
	}
	k := max(m/3, 1)
	rng := rand.New(rand.NewSource(seed))
	sum := 0.0
	for _, x := range seq {
		locs, err := cs.RandomLocations(rng, n, m)
		if err != nil {
			return 0, err
		}
		y, err := cs.Measure(x, locs, rng, nil)
		if err != nil {
			return 0, err
		}
		res, err := cs.OMPOp(phi, locs, y, k, 1e-9)
		if err != nil {
			return 0, err
		}
		sum += cs.NMSE(x, res.Xhat)
	}
	return sum / float64(len(seq)), nil
}

// recoverSpatioTemporal is A5's joint decode: it samples each step of seq
// as recoverSequence does and decodes the T·m readings at once with
// cs.DecodeSpatioTemporal at a sparsity budget of T·m/3 — a slowly
// evolving field has few temporal modes, so the joint problem is much
// sparser relative to its size than any single snapshot. It returns the
// mean NMSE over the steps.
func recoverSpatioTemporal(phi basis.Operator, seq [][]float64, m int, seed int64) (float64, error) {
	n, err := checkSequence(phi, seq, m)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	jm := cs.JointMeasurements{T: len(seq), N: n}
	for step, x := range seq {
		locs, err := cs.RandomLocations(rng, n, m)
		if err != nil {
			return 0, err
		}
		ys, err := cs.Measure(x, locs, rng, nil)
		if err != nil {
			return 0, err
		}
		for i, l := range locs {
			jm.Locs = append(jm.Locs, step*n+l)
			jm.Y = append(jm.Y, ys[i])
		}
	}
	recovered, _, err := cs.DecodeSpatioTemporal(phi, jm, len(seq)*m/3)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for step, x := range seq {
		sum += cs.NMSE(x, recovered[step])
	}
	return sum / float64(len(seq)), nil
}

// checkSequence validates a sequence and its per-step budget m, and
// returns the field length.
func checkSequence(phi basis.Operator, seq [][]float64, m int) (int, error) {
	if len(seq) == 0 {
		return 0, errors.New("experiments: empty sequence")
	}
	if m <= 0 {
		return 0, errors.New("experiments: sequence recovery needs positive M")
	}
	n := phi.Dim()
	for _, x := range seq {
		if len(x) != n {
			return 0, errors.New("experiments: sequence step length mismatch")
		}
	}
	return n, nil
}

// --- A6: adaptive sampling -----------------------------------------------------------

// A6Config sizes the adaptive-sampling study.
type A6Config struct {
	DurationS float64 // simulated seconds
	Events    int     // bursts within the duration
	Seed      int64
}

// DefaultA6 returns the paper-scale configuration.
func DefaultA6() A6Config { return A6Config{DurationS: 3600, Events: 4, Seed: 26} }

// A6 evaluates the §5 "adaptive sampling" direction: a bursty temperature
// signal tracked by fixed fast sampling, fixed slow sampling, and the
// variance-driven AIMD sampler — comparing samples spent against worst
// tracking error.
func A6(cfg A6Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Signal: flat baseline with sharp exponential bursts.
	type burst struct{ t0, amp, tau float64 }
	bursts := make([]burst, cfg.Events)
	for i := range bursts {
		bursts[i] = burst{
			t0:  (float64(i) + 0.3 + 0.4*rng.Float64()) * cfg.DurationS / float64(cfg.Events),
			amp: 5 + 5*rng.Float64(),
			tau: 40 + 30*rng.Float64(),
		}
	}
	signal := func(tt float64) float64 {
		v := 20.0
		for _, b := range bursts {
			if tt >= b.t0 {
				v += b.amp * math.Exp(-(tt-b.t0)/b.tau)
			}
		}
		return v
	}
	// run simulates one policy: nextInterval decides spacing; returns
	// samples used and the mean absolute error of zero-order-hold
	// tracking at 1 s resolution. (Worst-case error cannot discriminate
	// here: a burst is an instantaneous jump, so every policy eats one
	// full-amplitude sample; the integrated error is what sampling rate
	// actually controls.)
	run := func(next func(windowVar float64) float64, start float64) (int, float64) {
		samples := 0
		tt := 0.0
		lastVal := signal(0)
		interval := start
		errSum, errN := 0.0, 0
		var window []float64
		for tt < cfg.DurationS {
			steps := int(interval)
			if steps < 1 {
				steps = 1
			}
			for s := 0; s < steps && tt < cfg.DurationS; s++ {
				errSum += math.Abs(signal(tt) - lastVal)
				errN++
				tt++
			}
			lastVal = signal(tt)
			samples++
			window = append(window, lastVal)
			if len(window) > 5 {
				window = window[1:]
			}
			interval = next(variance(window))
		}
		return samples, errSum / float64(errN)
	}
	fixedFast := func(float64) float64 { return 5 }
	fixedSlow := func(float64) float64 { return 60 }
	sampler, err := schedule.NewAdaptiveSampler(5, 40, 0.02)
	if err != nil {
		return nil, err
	}
	adaptive := sampler.Observe

	t := &Table{
		ID:     "A6",
		Title:  "Adaptive sampling: samples spent vs mean tracking error",
		Header: []string{"policy", "samples", "mean-error", "sensor-mJ"},
	}
	cost := energy.SampleMJ(sensor.Temperature)
	policies := []struct {
		name string
		next func(float64) float64
		init float64
	}{
		{"fixed-5s", fixedFast, 5},
		{"fixed-60s", fixedSlow, 60},
		{"adaptive-AIMD", adaptive, 5},
	}
	samples := make([]int, len(policies))
	meanErrs := make([]float64, len(policies))
	if err := forEach(len(policies), func(pi int) error {
		samples[pi], meanErrs[pi] = run(policies[pi].next, policies[pi].init)
		return nil
	}); err != nil {
		return nil, err
	}
	for pi, p := range policies {
		t.AddRow(p.name, d(samples[pi]), f(meanErrs[pi]), f2(float64(samples[pi])*cost))
	}
	t.AddNote("%.0f s bursty signal with %d events; adaptive trades a little accuracy for a large cut in samples vs fixed-fast, and beats fixed-slow on both axes per joule", cfg.DurationS, cfg.Events)
	return t, nil
}

func variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := 0.0
	for _, x := range v {
		m += x
	}
	m /= float64(len(v))
	s := 0.0
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return s / float64(len(v))
}

// --- C7: heterogeneous radio selection -------------------------------------------------

// C7Config sizes the radio-selection study.
type C7Config struct {
	Messages int
	BTAvail  float64 // probability Bluetooth is in range for a message
	Seed     int64
}

// DefaultC7 returns the paper-scale configuration.
func DefaultC7() C7Config { return C7Config{Messages: 2000, BTAvail: 0.45, Seed: 27} }

// C7 concretizes the §5 "heterogeneity in mobile cloud" direction:
// per-message radio selection (Bluetooth when in range, else WiFi, GSM as
// last resort) versus pinning all traffic to one radio.
func C7(cfg C7Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Message mix: mostly small telemetry, some bulk log uploads.
	sizes := make([]int, cfg.Messages)
	btOK := make([]bool, cfg.Messages)
	wifiOK := make([]bool, cfg.Messages)
	for i := range sizes {
		if rng.Float64() < 0.85 {
			sizes[i] = 32 + rng.Intn(96)
		} else {
			sizes[i] = 4096 + rng.Intn(8192)
		}
		btOK[i] = rng.Float64() < cfg.BTAvail
		wifiOK[i] = rng.Float64() < 0.9
	}
	total := func(policy func(i int) []energy.RadioKind) (float64, int) {
		sum := 0.0
		dropped := 0
		for i, sz := range sizes {
			r, cost, ok := energy.ChooseRadio(sz, policy(i))
			if !ok {
				dropped++
				continue
			}
			_ = r
			sum += cost
		}
		return sum, dropped
	}
	wifiOnly, dW := total(func(i int) []energy.RadioKind {
		if wifiOK[i] {
			return []energy.RadioKind{energy.RadioWiFi}
		}
		return nil
	})
	gsmOnly, dG := total(func(i int) []energy.RadioKind {
		return []energy.RadioKind{energy.RadioGSM}
	})
	adaptiveE, dA := total(func(i int) []energy.RadioKind {
		var avail []energy.RadioKind
		if btOK[i] {
			avail = append(avail, energy.RadioBluetooth)
		}
		if wifiOK[i] {
			avail = append(avail, energy.RadioWiFi)
		}
		avail = append(avail, energy.RadioGSM)
		return avail
	})
	t := &Table{
		ID:     "C7",
		Title:  "Per-message radio selection vs pinned radio",
		Header: []string{"policy", "total-mJ", "dropped", "vs-gsm"},
	}
	t.AddRow("gsm-only", f2(gsmOnly), d(dG), "-")
	t.AddRow("wifi-only", f2(wifiOnly), d(dW), pct(energy.SavingsPercent(gsmOnly, wifiOnly)))
	t.AddRow("adaptive", f2(adaptiveE), d(dA), pct(energy.SavingsPercent(gsmOnly, adaptiveE)))
	t.AddNote("%d messages (85%% telemetry, 15%% bulk); Bluetooth in range %.0f%% of the time; adaptive never drops", cfg.Messages, 100*cfg.BTAvail)
	return t, nil
}

// --- C8: coverage under mobility models -------------------------------------------------

// C8Config sizes the coverage study.
type C8Config struct {
	GridW, GridH int
	Nodes        int
	DurationS    float64
	StepS        float64
	Seed         int64
}

// DefaultC8 returns the paper-scale configuration.
func DefaultC8() C8Config {
	return C8Config{GridW: 16, GridH: 16, Nodes: 8, DurationS: 1200, StepS: 5, Seed: 28}
}

// C8 measures the spatial/temporal coverage metrics (after the
// StreamShaper line of work in the paper's §2) achieved by a node fleet
// under random-waypoint vs Gauss–Markov mobility.
func C8(cfg C8Config) (*Table, error) {
	areaW := float64(cfg.GridW) * 10
	areaH := float64(cfg.GridH) * 10
	runModel := func(mk func(r *rand.Rand) (mobility.Model, error)) (*coverage.Log, error) {
		rng := rand.New(rand.NewSource(cfg.Seed))
		log, err := coverage.NewLog(cfg.GridW, cfg.GridH)
		if err != nil {
			return nil, err
		}
		models := make([]mobility.Model, cfg.Nodes)
		for i := range models {
			m, err := mk(rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, err
			}
			models[i] = m
		}
		for tt := 0.0; tt < cfg.DurationS; tt += cfg.StepS {
			for _, m := range models {
				p := m.Step(cfg.StepS)
				idx := mobility.GridIndex(p, areaW, areaH, cfg.GridW, cfg.GridH)
				if err := log.Record(idx, tt); err != nil {
					return nil, err
				}
			}
		}
		return log, nil
	}
	wp, err := runModel(func(r *rand.Rand) (mobility.Model, error) {
		return mobility.NewRandomWaypoint(r, areaW, areaH, 1, 3, 2)
	})
	if err != nil {
		return nil, err
	}
	gm, err := runModel(func(r *rand.Rand) (mobility.Model, error) {
		return mobility.NewGaussMarkov(r, areaW, areaH, 0.85, 2, 0.4)
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "C8",
		Title:  "Coverage metrics under mobility models",
		Header: []string{"model", "cells", "spatial(r=1)", "temporal(5min)", "staleness(s)"},
	}
	for _, row := range []struct {
		name string
		log  *coverage.Log
	}{{"random-waypoint", wp}, {"gauss-markov", gm}} {
		t.AddRow(row.name,
			d(row.log.Cells()),
			f(row.log.Spatial(1)),
			f(row.log.Temporal(300, cfg.DurationS)),
			f2(row.log.MaxStaleness(cfg.DurationS)))
	}
	t.AddNote("%d nodes roaming %.0f s over a %dx%d grid, sampling their cell every %.0f s", cfg.Nodes, cfg.DurationS, cfg.GridH, cfg.GridW, cfg.StepS)
	return t, nil
}

// --- C9: opportunistic collaboration (Aquiba) ----------------------------------------------

// C9Config sizes the opportunistic-collaboration study.
type C9Config struct {
	AreaM  float64 // square area side, meters
	Radius float64 // collaboration (overhearing) radius
	Rounds int
	Crowds []int // pedestrian counts to sweep
	Seed   int64
}

// DefaultC9 returns the paper-scale configuration.
func DefaultC9() C9Config {
	return C9Config{AreaM: 300, Radius: 20, Rounds: 30, Crowds: []int{20, 60, 150, 300}, Seed: 29}
}

// C9 reproduces the Aquiba result the paper's related work cites
// (Thepvilojanapong et al.): opportunistic collaboration of pedestrians
// suppresses redundant reports, with savings growing with crowd density,
// at a bounded spatial cost (distance from a suppressed walker to its
// cluster's representative).
func C9(cfg C9Config) (*Table, error) {
	t := &Table{
		ID:     "C9",
		Title:  "Opportunistic collaboration: report suppression vs crowd density",
		Header: []string{"pedestrians", "mean-reports", "suppressed", "redundancy", "coverage-loss(m)", "energy-saved"},
	}
	perReport := energy.TxCostMJ(energy.RadioWiFi, 64) + energy.SampleMJ(sensor.GPS)
	for _, crowd := range cfg.Crowds {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(crowd)))
		models := make([]mobility.Model, crowd)
		for i := range models {
			m, err := mobility.NewRandomWaypoint(
				rand.New(rand.NewSource(rng.Int63())), cfg.AreaM, cfg.AreaM, 0.8, 1.8, 3)
			if err != nil {
				return nil, err
			}
			models[i] = m
		}
		reports, suppressed, lossSum := 0, 0, 0.0
		for round := 0; round < cfg.Rounds; round++ {
			peers := make([]opportunistic.Peer, crowd)
			for i, m := range models {
				p := m.Step(10)
				peers[i] = opportunistic.Peer{
					ID: fmt.Sprintf("p%d", i), Pos: p, Battery: rng.Float64(),
				}
			}
			clusters, err := opportunistic.Clusters(peers, cfg.Radius)
			if err != nil {
				return nil, err
			}
			reps, err := opportunistic.Elect(peers, clusters, opportunistic.ElectBattery)
			if err != nil {
				return nil, err
			}
			reports += len(reps)
			suppressed += crowd - len(reps)
			lossSum += opportunistic.CoverageLoss(peers, clusters, reps)
		}
		rounds := float64(cfg.Rounds)
		baselineE := float64(crowd) * rounds * perReport
		actualE := float64(reports) * perReport
		t.AddRow(d(crowd),
			f2(float64(reports)/rounds),
			d(suppressed),
			pct(100*float64(suppressed)/float64(crowd*cfg.Rounds)),
			f2(lossSum/rounds),
			pct(energy.SavingsPercent(baselineE, actualE)))
	}
	t.AddNote("%.0f m area, %.0f m overhearing radius, %d rounds; savings grow with density, but dense crowds chain into large clusters so coverage loss grows too — the protocol's resolution/energy dial", cfg.AreaM, cfg.Radius, cfg.Rounds)
	return t, nil
}
