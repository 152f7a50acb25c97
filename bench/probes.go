package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/basis"
	"repro/internal/bus"
	"repro/internal/cs"
	"repro/internal/energy"
	"repro/internal/field"
	"repro/internal/mat"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/sensor"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// Layer micro-probes: each times one exported call of one layer in
// isolation, at a size taken from a workload, for a fixed slice of the
// traced pass. They are the same on every workload — a probe that moves
// where no workload moves has found a cost nobody pays.

// probe measures one or more ledger entries, giving each about d.
type probe func(d time.Duration, rng *rand.Rand, m *metricSet) error

// probes lists the probes with how many ledger entries each fills; the
// traced pass shares its probe time equally among the entries.
var probes = []struct {
	run     probe
	entries int
}{
	{probeBus, 2}, {probeTCP, 2}, {probeNode, 2}, {probeCHS, 1}, {probeTransforms, 3},
	{probeSnapshot, 2}, {probeQuery, 2}, {probeStore, 2}, {probeKernels, 2}, {probeNetsim, 2},
}

// timeCalls calls fn in batches for about d (one batch at least) and
// returns the median over batches of the time per call, in nanoseconds.
func timeCalls(d time.Duration, batch int, fn func()) float64 {
	var per []float64
	for end := time.Now().Add(d); ; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
		if !time.Now().Before(end) {
			return median(per)
		}
	}
}

func runProbes(total time.Duration, rng *rand.Rand, m *metricSet) error {
	entries := 0
	for _, p := range probes {
		entries += p.entries
	}
	for _, p := range probes {
		if err := p.run(total/time.Duration(entries), rng, m); err != nil {
			return err
		}
	}
	return nil
}

// echo is the request and reply body of the request/reply probe.
type echo struct {
	N int `json:"n"`
}

func probeBus(d time.Duration, _ *rand.Rand, m *metricSet) error {
	b := bus.New()
	defer b.Close()
	// One publish matched against 64 subscriptions, one of which it hits.
	var hit *bus.Subscription
	for i := 0; i < 64; i++ {
		sub, err := b.Subscribe(fmt.Sprintf("probe/s%d", i), 1)
		if err != nil {
			return err
		}
		if i == 0 {
			hit = sub
		}
	}
	payload := make([]byte, 64)
	var perr error
	m.set("bus.publish_ns", timeCalls(d, 256, func() {
		if err := b.Publish("probe/s0", payload); err != nil {
			perr = err
		}
		<-hit.C
	}))
	if perr != nil {
		return perr
	}

	// One in-process round trip: request envelope out, reply back.
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- bus.RespondContext(ctx, b, "probe/echo", func(_ string, body []byte) (any, error) {
			return echo{N: len(body)}, nil
		})
	}()
	for b.SubscriberCount("probe/echo") == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	m.set("bus.reqreply_us", timeCalls(d, 64, func() {
		var out echo
		if err := bus.RequestContext(ctx, b, "probe/echo", echo{N: 1}, &out); err != nil {
			perr = err
		}
	})/1e3)
	cancel()
	<-served
	return perr
}

func probeTCP(d time.Duration, _ *rand.Rand, m *metricSet) error {
	b := bus.New()
	defer b.Close()
	srv, err := bus.NewServer(b, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := bus.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()
	back, err := cli.Subscribe("probe/rtt")
	if err != nil {
		return err
	}
	for b.SubscriberCount("probe/rtt") == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	payload := make([]byte, 64)
	var perr error
	// client → server → client: a publish the client is itself subscribed to.
	m.set("bus.tcp_rtt_us", timeCalls(d, 16, func() {
		if err := cli.Publish("probe/rtt", payload); err != nil {
			perr = err
			return
		}
		<-back
	})/1e3)
	if perr != nil {
		return perr
	}

	// One way: a burst of frames in, counted as they reach an in-process
	// subscriber. The buffer holds a whole burst, so nothing is dropped.
	const burst = 256
	sink, err := b.Subscribe("probe/oneway", burst)
	if err != nil {
		return err
	}
	per := timeCalls(d, 1, func() {
		for i := 0; i < burst; i++ {
			if err := cli.Publish("probe/oneway", payload); err != nil {
				perr = err
				return
			}
		}
		for i := 0; i < burst; i++ {
			<-sink.C
		}
	})
	m.set("bus.tcp_pub_per_s", burst*1e9/per)
	return perr
}

func probeNode(d time.Duration, rng *rand.Rand, m *metricSet) error {
	env := worldEnv{genFields(rng, wireGrid, wireGrid, 1)[0]}
	aw, ah := env.AreaDims()
	nodes := make([]*node.Node, 64)
	for i := range nodes {
		mob, err := mobility.NewRandomWaypoint(rand.New(rand.NewSource(rng.Int63())), aw, ah, 0.8, 2.2, 2)
		if err != nil {
			return err
		}
		nodes[i], err = node.New(node.Config{
			ID: fmt.Sprintf("probe/n%d", i), Seed: rng.Int63(),
			Profile: sensor.RandomProfile(rng), Motion: sensor.MotionWalking,
		}, env, mob)
		if err != nil {
			return err
		}
	}
	var perr error
	m.set("node.measure_us", timeCalls(d, 64, func() {
		if _, err := nodes[0].MeasureField(sensor.Temperature); err != nil {
			perr = err
		}
	})/1e3)

	// Attach is three subscriptions and three goroutines per node; it is
	// what a deployment's set-up time is mostly made of.
	b := bus.New()
	defer b.Close()
	var attach []float64
	for end := time.Now().Add(d); perr == nil; {
		t0 := time.Now()
		for _, nd := range nodes {
			if err := nd.AttachBus(b, "lc0/nc0"); err != nil {
				perr = err
			}
		}
		attach = append(attach, float64(time.Since(t0))/float64(len(nodes)))
		for _, nd := range nodes {
			nd.Detach()
		}
		if !time.Now().Before(end) {
			break
		}
	}
	m.set("node.attach_us", median(attach)/1e3)
	return perr
}

// probeCHS decodes one fleet-round zone: 64×64 cells, 1024 measurements,
// support capped at 64.
func probeCHS(d time.Duration, rng *rand.Rand, m *metricSet) error {
	truth := genFields(rng, 64, 64, 1)[0]
	op, err := truth.Operator2D(basis.KindDCT)
	if err != nil {
		return err
	}
	locs := rng.Perm(truth.N())[:1024]
	y := make([]float64, len(locs))
	for i, k := range locs {
		y[i] = truth.Data[k] + rng.NormFloat64()*0.1
	}
	var perr error
	m.set("cs.chs_zone_ms", timeCalls(d, 1, func() {
		if _, err := cs.CHSOp(op, locs, y, cs.CHSOptions{MaxSupport: 64, MaxIter: 64, Tol: 1e-8, PerIter: 1}); err != nil {
			perr = err
		}
	})/1e6)
	return perr
}

func probeTransforms(d time.Duration, rng *rand.Rand, m *metricSet) error {
	for _, side := range []int{64, 256} {
		op, err := field.New(side, side).Operator2D(basis.KindDCT)
		if err != nil {
			return err
		}
		x, alpha, back := make([]float64, op.Dim()), make([]float64, op.Dim()), make([]float64, op.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		m.set(fmt.Sprintf("basis.dct2d_%d_us", side), timeCalls(d, 4, func() {
			op.ApplyTranspose(alpha, x)
			op.Apply(back, alpha)
		})/1e3)
	}

	// A campaign-decode zone's factorisation: 400 rows, 133 columns.
	const rows, cols = 400, 133
	col := make([][]float64, cols)
	for j := range col {
		col[j] = make([]float64, rows)
		for i := range col[j] {
			col[j][i] = rng.NormFloat64()
		}
	}
	var perr error
	per := timeCalls(d, 1, func() {
		qr, err := mat.NewIncrementalQR(rows, cols)
		if err != nil {
			perr = err
			return
		}
		for _, c := range col {
			if err := qr.Append(c); err != nil {
				perr = err
			}
		}
	})
	m.set("mat.incqr_append_us", per/1e3/cols)
	return perr
}

func probeSnapshot(d time.Duration, rng *rand.Rand, m *metricSet) error {
	reg := snapshot.NewRegistry(serveRetain)
	f := genFields(rng, serveGrid, serveGrid, 1)[0]
	var perr error
	m.set("snapshot.publish_us", timeCalls(d, 64, func() {
		if _, err := reg.Publish(&snapshot.Snapshot{Kind: sensor.Temperature, Field: f}); err != nil {
			perr = err
		}
	})/1e3)
	var latest *snapshot.Snapshot
	m.set("snapshot.latest_ns", timeCalls(d, 4096, func() { latest = reg.Latest() }))
	if latest == nil {
		return fmt.Errorf("snapshot probe: nothing published")
	}
	return perr
}

// cell is a concrete query environment, as the server's own is.
type cell struct {
	value float64
	zone  int
}

func (c *cell) Lookup(name string) (query.Val, bool) {
	switch name {
	case "value":
		return query.Num(c.value), true
	case "zone":
		return query.Num(float64(c.zone)), true
	}
	return query.Val{}, false
}

func probeQuery(d time.Duration, _ *rand.Rand, m *metricSet) error {
	const src = "zone == 0 && value < 30"
	var (
		f    *query.Filter
		perr error
	)
	m.set("query.compile_us", timeCalls(d, 64, func() {
		var err error
		if f, err = query.Compile(src); err != nil {
			perr = err
		}
	})/1e3)
	if perr != nil {
		return perr
	}
	env := &cell{value: 20}
	m.set("query.eval_ns", timeCalls(d, 4096, func() {
		if _, err := f.EvalWith(env); err != nil {
			perr = err
		}
	}))
	return perr
}

func probeStore(d time.Duration, _ *rand.Rand, m *metricSet) error {
	st := store.New(1024)
	vals := []float64{1, 2, 3, 4}
	t := 0.0
	var perr error
	m.set("store.append_ns", timeCalls(d, 1024, func() {
		t++
		if err := st.Append("probe", store.Record{T: t, Values: vals}); err != nil {
			perr = err
		}
	}))
	// The series now holds its cap of 1024 records; read a quarter of it.
	m.set("store.query_us", timeCalls(d, 64, func() {
		if recs, err := st.Query("probe", t-511, t-256); err != nil || len(recs) != 256 {
			perr = fmt.Errorf("store probe: %d records, err %v", len(recs), err)
		}
	})/1e3)
	return perr
}

// probeKernels times the fleet tick's two inner loops over one shard.
func probeKernels(d time.Duration, rng *rand.Rand, m *metricSet) error {
	params := mobility.WaypointParams{W: 640, H: 640, MinSpeed: 0.8, MaxSpeed: 2.2, Pause: 2}
	way, err := mobility.InitWaypoints(rng, params, fleetShard)
	if err != nil {
		return err
	}
	m.set("mobility.step_ns_per_node", timeCalls(d, 4, func() {
		mobility.StepWaypoints(rng, params, way, 1)
	})/fleetShard)
	bank, err := energy.NewBank(fleetShard, 0)
	if err != nil {
		return err
	}
	m.set("energy.drain_ns_per_node", timeCalls(d, 64, func() { bank.DrainAll(0.01) })/fleetShard)
	return nil
}

func probeNetsim(d time.Duration, rng *rand.Rand, m *metricSet) error {
	var perr error
	wire := func(async bool) (*netsim.Network, error) {
		net := netsim.New(rng.Int63())
		net.SetAsync(async)
		net.SetDefaultLink(netsim.Link{LatencyMS: 1})
		if err := net.Register("probe/tx", nil); err != nil {
			return nil, err
		}
		return net, net.Register("probe/rx", func(netsim.Message) {})
	}
	msg := netsim.Message{From: "probe/tx", To: "probe/rx", Topic: "probe", Payload: make([]byte, fleetEnvelope)}

	net, err := wire(false)
	if err != nil {
		return err
	}
	m.set("netsim.send_ns", timeCalls(d, 1024, func() {
		if err := net.Send(msg); err != nil {
			perr = err
		}
	}))

	// A shard's round as the fleet sends it: one batch, one flush.
	if net, err = wire(true); err != nil {
		return err
	}
	batch := make([]netsim.Message, fleetShard)
	for i := range batch {
		batch[i] = msg
	}
	m.set("netsim.batch_ns_per_msg", timeCalls(d, 1, func() {
		if _, err := net.DeliverBatch(batch); err != nil {
			perr = err
		}
		net.Flush()
	})/fleetShard)
	return perr
}
