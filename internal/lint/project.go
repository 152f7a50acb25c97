package lint

// Project wiring: which invariant applies to which part of the SenseDroid
// tree. cmd/sdlint and the lint tests both build their analyzer set here
// so the CLI and the test suite can never drift apart.

// DeterministicPkgs are the packages under the byte-identical-output
// contract of DESIGN.md §5: the decode pipeline and the experiment
// drivers. Reconstructions and tables from these packages must be
// reproducible from seeds alone.
var DeterministicPkgs = []string{
	"repro/internal/cs",
	"repro/internal/mat",
	"repro/internal/basis",
	"repro/internal/fft",
	"repro/internal/field",
	"repro/internal/experiments",
	"repro/internal/cloud",
	"repro/internal/fleet",
}

// HotPathPkgs carry permanent instrumentation on per-event paths (bus
// publish, netsim delivery, decode iterations, store appends) and are
// held to the zero-cost-when-disabled obs contract of DESIGN.md §6.
var HotPathPkgs = []string{
	"repro/internal/bus",
	"repro/internal/netsim",
	"repro/internal/broker",
	"repro/internal/node",
	"repro/internal/store",
	"repro/internal/cloud",
	"repro/internal/core",
	"repro/internal/cs",
	"repro/internal/mat",
	"repro/internal/basis",
	"repro/internal/fft",
	"repro/internal/stream",
	"repro/internal/snapshot",
	"repro/internal/serve",
	"repro/internal/fleet",
	"repro/internal/mobility",
	"repro/internal/energy",
}

// ErrcheckScope: every library package. cmd/ and examples/ are package
// main and carry their own error handling idiom (often log.Fatal).
var ErrcheckScope = []string{"repro/internal/..."}

// PrintAllowedPkgs may print to ambient streams despite being library
// packages. Currently empty: the experiments table printers already take
// an io.Writer, which is the preferred shape. Extend deliberately.
var PrintAllowedPkgs = []string{}

// ObsPath is the observability package the obshot check guards calls into.
const ObsPath = "repro/internal/obs"

// ModulePrefix scopes the interprocedural analyzers to module-local
// callees (stdlib and vendored code are never findings).
const ModulePrefix = "repro/"

// CtxBlocking maps the context-less convenience wrappers of blocking
// middleware operations to their context-aware variants. Inside a
// context-accepting function, calling the wrapper silently discards the
// caller's cancellation — ctxflow points at the variant instead. One
// wrapper is left: bench/ calls Pipeline.Step by name.
var CtxBlocking = map[string]string{
	"(*repro/internal/stream.Pipeline).Step": "Pipeline.StepContext",
}

// PublishSinks maps the module's publish functions to the index of the
// argument whose ownership transfers to concurrent readers at the call.
// Channel sends and atomic.Pointer Store/Swap/CompareAndSwap are always
// sinks; this table adds the middleware's named publication points.
var PublishSinks = map[string]int{
	"(*repro/internal/snapshot.Registry).Publish": 0,
	"(*repro/internal/bus.Bus).Publish":           1,
}

// HotEntryPoints are the per-event entry functions whose module-local
// call/defer closure is held to the zero-allocation contract of
// DESIGN.md §6: the serving read path, bus message fan-out, netsim
// delivery, and store appends. Per-window work (decode, stream steps)
// is deliberately not listed — those paths allocate result buffers by
// design and are guarded by obshot instead.
var HotEntryPoints = []string{
	"(*repro/internal/serve.Server).Point",
	"(*repro/internal/serve.Server).Range",
	"(*repro/internal/serve.Server).Aggregate",
	"(*repro/internal/snapshot.Registry).Latest",
	"(*repro/internal/bus.Bus).Publish",
	"(*repro/internal/netsim.Network).Send",
	"(*repro/internal/netsim.Network).Deliver",
	"(*repro/internal/netsim.Network).DeliverRun",
	"(*repro/internal/netsim.Network).DeliverBatch", // bench/ still calls it
	"(*repro/internal/netsim.Network).Flush",
	"(*repro/internal/store.Store).Append",
	"(*repro/internal/store.Store).AppendScalar",
	"(*repro/internal/fleet.Shard).Tick",
	"(*repro/internal/fleet.Shard).report",
	"repro/internal/mobility.StepWaypoints",
	"(*repro/internal/energy.Bank).DrainAll",
}

// HotAmortizedStops are cache- or once-gated boundaries inside the hot
// closure: the boundary function runs per event (and is scanned), but
// its callees only run on a miss, so hotness stops propagating there.
// serve.(*Server).compile hits the CoW filter cache on the steady
// state; the query parser behind it allocates its AST freely.
var HotAmortizedStops = []string{
	"(*repro/internal/serve.Server).compile",
}

// ProjectTopicConfig describes the middleware's message-protocol surface
// for topicflow: every function whose call sites mint a topic or pattern,
// with the operand positions of the topic, the request body, the reply
// destination, and the responder handler. Keys are call-graph FuncIDs.
// The bus package itself is the protocol implementation, not a protocol
// participant — its internal publishes/subscribes are excluded. A
// scatter's requests are described one bus.NewCall at a time, so that
// call site, not bus.Scatter's, is the request endpoint: it is the one
// with the topic, body and reply operands.
func ProjectTopicConfig() *TopicConfig {
	return &TopicConfig{
		ImplPkgs: []string{"repro/internal/bus"},
		Roots: map[string]TopicRoot{
			"(*repro/internal/bus.Bus).Publish":      {Role: TopicPublish, TopicArg: 0, BodyArg: -1, OutArg: -1, HandlerArg: -1},
			"(*repro/internal/bus.Bus).Subscribe":    {Role: TopicSubscribe, TopicArg: 0, BodyArg: -1, OutArg: -1, HandlerArg: -1},
			"(*repro/internal/bus.Client).Publish":   {Role: TopicPublish, TopicArg: 0, BodyArg: -1, OutArg: -1, HandlerArg: -1},
			"(*repro/internal/bus.Client).Subscribe": {Role: TopicSubscribe, TopicArg: 0, BodyArg: -1, OutArg: -1, HandlerArg: -1},
			"repro/internal/bus.NewCall":             {Role: TopicRequest, TopicArg: 0, BodyArg: 2, OutArg: 3, HandlerArg: -1},
			"repro/internal/bus.RequestContext":      {Role: TopicRequest, TopicArg: 2, BodyArg: 3, OutArg: 4, HandlerArg: -1},
			"repro/internal/bus.RespondContext":      {Role: TopicRespond, TopicArg: 2, BodyArg: -1, OutArg: -1, HandlerArg: 3},
			"(*repro/internal/node.Node).serveTopic": {Role: TopicRespond, TopicArg: 1, BodyArg: -1, OutArg: -1, HandlerArg: 2},
		},
	}
}

// ProjectAnalyzers returns the full sdlint analyzer suite with the
// project's scoping baked in.
func ProjectAnalyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism(pathMatcher(DeterministicPkgs...)),
		MutexGuard(),
		ObsHot(pathMatcher(HotPathPkgs...), ObsPath),
		ErrCheck(pathMatcher(ErrcheckScope...)),
		PrintBan(pathMatcher(PrintAllowedPkgs...)),
		Lockorder(),
		GoroLeak(),
		CtxFlow(CtxBlocking, ModulePrefix),
		RaceGuard(),
		AliasPub(PublishSinks, ModulePrefix),
		HotAlloc(HotEntryPoints, HotAmortizedStops),
		TopicFlow(ProjectTopicConfig()),
		ChanFlow(),
	}
}
