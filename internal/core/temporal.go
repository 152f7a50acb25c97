package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/basis"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/sensor"
)

// TemporalCampaignConfig parameterizes a multi-round campaign whose zone
// sequences are decoded jointly in the temporal⊗spatial basis — the
// middleware-level realization of the paper's "spatio-temporal
// compressive sensing".
type TemporalCampaignConfig struct {
	Kind    sensor.Kind                 // field quantity (default temperature)
	Steps   int                         // sensing rounds
	TotalM  int                         // measurement budget per round (split uniformly)
	TickS   float64                     // node movement between rounds (default 30 s)
	Evolve  func(step int) *field.Field // the changing world; required
	JointK  int                         // joint sparsity per zone (0 = heuristic)
	Compare bool                        // also decode each round independently for comparison
}

// TemporalCampaignResult reports a completed multi-round campaign.
type TemporalCampaignResult struct {
	PerStepNMSE   []float64      // joint decoding, per round
	MeanNMSE      float64        // joint decoding, averaged
	PerStepStatic []float64      // per-round independent decoding (if Compare)
	MeanStatic    float64        // averaged (if Compare)
	Fields        []*field.Field // joint-decoded global field per round
}

// RunTemporalCampaign senses Steps rounds of the evolving world, then
// decodes each zone's round sequence jointly. With Compare it also runs
// the per-round independent decoder on the same measurements so the gain
// from temporal correlation is measured on identical data.
func (sd *SenseDroid) RunTemporalCampaign(cfg TemporalCampaignConfig) (*TemporalCampaignResult, error) {
	if cfg.Evolve == nil {
		return nil, errors.New("core: temporal campaign needs an Evolve function")
	}
	if cfg.Steps <= 0 || cfg.TotalM <= 0 {
		return nil, errors.New("core: temporal campaign needs positive Steps and TotalM")
	}
	if cfg.Kind == "" {
		cfg.Kind = sensor.Temperature
	}
	if cfg.TickS <= 0 {
		cfg.TickS = 30
	}
	plan := sd.Public.UniformBudget(cfg.TotalM)

	// Phase 1: sense all rounds, accumulating per-zone joint measurements
	// and the truth snapshots for accuracy accounting.
	type zoneSeq struct {
		jm     cs.JointMeasurements
		truths []*field.Field // zone-local truth per step
	}
	seqs := make(map[int]*zoneSeq, len(sd.Public.LCs))
	for _, lc := range sd.Public.LCs {
		z := lc.Env.Zone()
		seqs[z.ID] = &zoneSeq{jm: cs.JointMeasurements{T: cfg.Steps, N: z.W * z.H}}
	}
	for step := 0; step < cfg.Steps; step++ {
		truth := cfg.Evolve(step)
		if err := sd.SetTruth(truth); err != nil {
			return nil, err
		}
		sd.Tick(cfg.TickS)
		for _, lc := range sd.Public.LCs {
			z := lc.Env.Zone()
			m := plan[z.ID]
			if m <= 0 {
				return nil, fmt.Errorf("core: zone %d has no budget", z.ID)
			}
			// No caller context yet, as in RunCampaign.
			g, err := lc.GatherContext(context.TODO(), cfg.Kind, m)
			if err != nil {
				return nil, fmt.Errorf("core: step %d zone %d: %w", step, z.ID, err)
			}
			zs := seqs[z.ID]
			n := z.W * z.H
			for i, loc := range g.Locs {
				zs.jm.Locs = append(zs.jm.Locs, step*n+loc)
				zs.jm.Y = append(zs.jm.Y, g.Values[i])
			}
			zs.truths = append(zs.truths, field.Extract(sd.Truth, z))
		}
	}

	// Phase 2: joint decode per zone, assemble per-step global fields.
	res := &TemporalCampaignResult{
		PerStepNMSE: make([]float64, cfg.Steps),
		Fields:      make([]*field.Field, cfg.Steps),
	}
	if cfg.Compare {
		res.PerStepStatic = make([]float64, cfg.Steps)
	}
	for step := range res.Fields {
		res.Fields[step] = field.New(sd.Opts.FieldW, sd.Opts.FieldH)
	}
	// NMSE accumulators: numerator/denominator per step over all zones.
	num := make([]float64, cfg.Steps)
	den := make([]float64, cfg.Steps)
	numS := make([]float64, cfg.Steps)
	for _, lc := range sd.Public.LCs {
		z := lc.Env.Zone()
		zs := seqs[z.ID]
		proto := field.New(z.W, z.H)
		phi, err := proto.Operator2D(basis.KindDCT)
		if err != nil {
			return nil, err
		}
		recovered, _, err := cs.DecodeSpatioTemporal(phi, zs.jm, cfg.JointK)
		if err != nil {
			return nil, fmt.Errorf("core: zone %d joint decode: %w", z.ID, err)
		}
		n := z.W * z.H
		for step := 0; step < cfg.Steps; step++ {
			sub, err := field.FromVector(z.W, z.H, recovered[step])
			if err != nil {
				return nil, err
			}
			if err := field.Insert(res.Fields[step], z, sub); err != nil {
				return nil, err
			}
			truth := zs.truths[step].Data
			for i := 0; i < n; i++ {
				d := truth[i] - recovered[step][i]
				num[step] += d * d
				den[step] += truth[i] * truth[i]
			}
		}
		if cfg.Compare {
			// Per-step independent decoding of the same measurements.
			for step := 0; step < cfg.Steps; step++ {
				var locs []int
				var y []float64
				for i, jl := range zs.jm.Locs {
					if jl/n == step {
						locs = append(locs, jl%n)
						y = append(y, zs.jm.Y[i])
					}
				}
				if len(locs) == 0 {
					continue
				}
				k := len(locs) / 3
				if k < 1 {
					k = 1
				}
				r, err := cs.OMPOp(phi, locs, y, k, 1e-9)
				if err != nil {
					return nil, err
				}
				truth := zs.truths[step].Data
				for i := 0; i < n; i++ {
					d := truth[i] - r.Xhat[i]
					numS[step] += d * d
				}
			}
		}
	}
	for step := 0; step < cfg.Steps; step++ {
		if den[step] > 0 {
			res.PerStepNMSE[step] = num[step] / den[step]
			res.MeanNMSE += res.PerStepNMSE[step]
			if cfg.Compare {
				res.PerStepStatic[step] = numS[step] / den[step]
				res.MeanStatic += res.PerStepStatic[step]
			}
		}
	}
	res.MeanNMSE /= float64(cfg.Steps)
	if cfg.Compare {
		res.MeanStatic /= float64(cfg.Steps)
	}
	return res, nil
}
