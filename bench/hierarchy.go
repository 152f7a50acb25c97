package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/field"
	"repro/internal/sensor"
)

// hierarchy is a core.SenseDroid deployment whose op is one campaign:
// the world moves on a second, then the public cloud gathers and decodes
// every zone. campaign-gather and campaign-decode are the same code at
// opposite shapes — many nodes on a small grid, few nodes on a large one.
type hierarchy struct {
	sd     *core.SenseDroid
	fields []*field.Field
	totalM int
	n      int // ops so far
	meter  busMeter
}

// busMeter counts bus traffic as a publish hook sees it.
type busMeter struct{ msgs, bytes atomic.Int64 }

func (bm *busMeter) hook(_ string, payloadBytes int) {
	bm.msgs.Add(1)
	bm.bytes.Add(int64(payloadBytes))
}

// watch hooks every NanoCloud bus of a deployment.
func (bm *busMeter) watch(sd *core.SenseDroid) {
	for _, b := range sd.Buses {
		b.AddHook(bm.hook)
	}
}

// since adds the traffic since an earlier reading of the meter to seen.
func (bm *busMeter) since(msgs, bytes int64, seen counts) {
	seen["bus.msgs"] += float64(bm.msgs.Load() - msgs)
	seen["bus.bytes"] += float64(bm.bytes.Load() - bytes)
}

func buildCampaignGather(in *inputs) (deployment, error) {
	return buildHierarchy(in, core.Options{
		FieldW: 32, FieldH: 32, ZoneRows: 4, ZoneCols: 4, NCsPerZone: 2, NodesPerNC: 48,
	}, 320)
}

func buildCampaignDecode(in *inputs) (deployment, error) {
	return buildHierarchy(in, core.Options{
		FieldW: 128, FieldH: 128, ZoneRows: 2, ZoneCols: 2, NCsPerZone: 1, NodesPerNC: 8,
	}, 1600)
}

func buildHierarchy(in *inputs, opts core.Options, totalM int) (*hierarchy, error) {
	opts.Seed = deploymentSeed
	opts.Timeout = 2 * time.Second
	sd, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	h := &hierarchy{sd: sd, fields: in.fields, totalM: totalM}
	h.meter.watch(sd)
	return h, nil
}

// advance moves the world to op i: the next truth field and one second
// of node mobility.
func (h *hierarchy) advance(i int) error {
	if err := h.sd.SetTruth(h.fields[i%len(h.fields)]); err != nil {
		return err
	}
	h.sd.Tick(1)
	return nil
}

func (h *hierarchy) op() (opOut, error) {
	i := h.n
	h.n++
	if err := h.advance(i); err != nil {
		return opOut{}, err
	}
	before := h.sd.BusBytes()
	res, err := h.sd.RunCampaign(core.CampaignConfig{TotalM: h.totalM})
	if err != nil {
		return opOut{}, err
	}
	return opOut{nmse: res.GlobalNMSE, bytes: h.sd.BusBytes() - before}, nil
}

func (h *hierarchy) staged(tr *tracer, seen counts) (opOut, error) {
	i := h.n
	h.n++
	root := tr.begin(0, i, "op")
	defer tr.end(root)

	s := tr.begin(root, i, "tick")
	err := h.advance(i)
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	before, msgs, hooked := h.sd.BusBytes(), h.meter.msgs.Load(), h.meter.bytes.Load()
	global, _, err := stagedAssemble(h.sd, tr, root, i, seen, h.totalM, broker.ReconstructOptions{}, nil)
	if err != nil {
		return opOut{}, err
	}
	s = tr.begin(root, i, "score")
	nmse := stagedScore(h.sd, global)
	tr.end(s)
	h.meter.since(msgs, hooked, seen)
	return opOut{nmse: nmse, bytes: h.sd.BusBytes() - before}, nil
}

func (h *hierarchy) book(m *metricSet, stages stageLedger, perOp counts) {
	bookAssembly(m, stages, perOp)
}

func (h *hierarchy) extras(*metricSet, time.Duration) error { return nil }

func (h *hierarchy) close() { h.sd.Close() }

// stagedAssemble is PublicCloud.Assemble taken apart: budget, then per
// zone a gather and a decode, then the stitch, each under its own span
// and one zone after another. The zones run the same calls with the same
// RNG streams as the fan-out, so the field is the one Assemble returns;
// only the overlap between zones is gone. seeds warm-starts each zone's
// decode (nil: cold); the supports recovered are returned for the next
// window.
func stagedAssemble(sd *core.SenseDroid, tr *tracer, root, op int, seen counts,
	totalM int, opts broker.ReconstructOptions, seeds map[int][]int) (*field.Field, map[int][]int, error) {

	s := tr.begin(root, op, "budget")
	plan := sd.Public.UniformBudget(totalM)
	tr.end(s)

	ctx := context.Background()
	recs := make([]*broker.Reconstruction, len(sd.Public.LCs))
	supports := make(map[int][]int, len(recs))
	for z, lc := range sd.Public.LCs {
		id := lc.Env.Zone().ID
		s = tr.begin(root, op, "gather")
		g, err := lc.GatherContext(ctx, sensor.Temperature, plan[id])
		tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		zOpts := opts
		zOpts.SeedSupport = seeds[id]
		s = tr.begin(root, op, "decode")
		rec, err := lc.Brokers[0].ReconstructFrom(g, zOpts)
		tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		recs[z] = rec
		supports[id] = rec.Result.Support

		seen["broker.mobile"] += float64(g.NodesUsed)
		seen["broker.infra"] += float64(g.InfraUsed)
		seen["broker.denied"] += float64(g.Denied)
		seen["broker.shortfall"] += float64(g.Shortfall)
		seen["cs.iterations"] += float64(rec.Result.Iterations)
		seen["cs.support"] += float64(len(rec.Result.Support))
		seen["cs.residual"] += rec.Result.Residual
		seen["cs.zones"]++
		if seeds[id] != nil {
			seen["cs.seeded"]++
			if rec.Result.Iterations == 0 {
				seen["cs.warm_hits"]++
			}
		}
	}

	s = tr.begin(root, op, "assemble")
	global := field.New(sd.Opts.FieldW, sd.Opts.FieldH)
	for z, lc := range sd.Public.LCs {
		if err := field.Insert(global, lc.Env.Zone(), recs[z].Field); err != nil {
			tr.end(s)
			return nil, nil, err
		}
	}
	tr.end(s)
	return global, supports, nil
}

// stagedScore is the accuracy accounting RunCampaign does: the global
// NMSE and every zone's own.
func stagedScore(sd *core.SenseDroid, global *field.Field) float64 {
	for _, lc := range sd.Public.LCs {
		z := lc.Env.Zone()
		cs.NMSE(field.Extract(sd.Truth, z).Data, field.Extract(global, z).Data)
	}
	return cs.NMSE(sd.Truth.Data, global.Data)
}

// bookAssembly enters a staged hierarchical assembly in the ledger.
func bookAssembly(m *metricSet, stages stageLedger, perOp counts) {
	m.set("cloud.budget_us", stages.perOpMS("budget")*1e3)
	m.set("cloud.gather_ms", stages.perOpMS("gather"))
	m.set("cloud.gather_share", stages.share("gather"))
	m.set("field.assemble_us", stages.perOpMS("assemble")*1e3)
	bookGatherDecode(m, stages, perOp)
}

// bookGatherDecode enters what every gather-then-decode op shows: the
// decode's time and effort, the broker's harvest, and the bus traffic.
func bookGatherDecode(m *metricSet, stages stageLedger, perOp counts) {
	m.set("field.score_us", stages.perOpMS("score")*1e3)
	m.set("cs.decode_ms", stages.perOpMS("decode"))
	m.set("cs.decode_share", stages.share("decode"))
	m.set("cs.iterations_per_op", perOp["cs.iterations"])
	m.set("cs.support_per_op", perOp["cs.support"])
	if perOp["cs.zones"] > 0 {
		m.set("cs.residual", perOp["cs.residual"]/perOp["cs.zones"])
	}
	if perOp["cs.seeded"] > 0 {
		m.set("cs.warm_hit_ratio", perOp["cs.warm_hits"]/perOp["cs.seeded"])
	}
	m.set("broker.mobile_per_op", perOp["broker.mobile"])
	m.set("broker.infra_per_op", perOp["broker.infra"])
	m.set("broker.denied_per_op", perOp["broker.denied"])
	m.set("broker.shortfall_per_op", perOp["broker.shortfall"])
	m.set("bus.msgs_per_op", perOp["bus.msgs"])
	m.set("bus.bytes_per_op", perOp["bus.bytes"])
	if perOp["bus.msgs"] > 0 {
		// Two bus messages make one node request: the command and its reply.
		m.set("broker.useful_ratio", perOp["broker.mobile"]/(perOp["bus.msgs"]/2))
	}
}
