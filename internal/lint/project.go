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

// HotEntryPoints are the per-event entry functions whose module-local
// call/defer closure is held to the zero-allocation contract of
// DESIGN.md §6: the serving read path, bus message fan-out, netsim
// delivery and the fleet collector's run handler (Flush reaches it only
// through a function value, which the call graph does not follow),
// store appends, fleet ticks, and the decode kernels that run
// once per pursuit iteration (the Gram–Schmidt append, the 2-D analyses
// behind each correlation, and the admitted atom's column read: the
// dictionary's gather and the operator's memoized factor columns).
// Per-window entry points (a whole
// decode, stream steps) are deliberately not listed — they allocate
// result buffers by design and are guarded by obshot instead.
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
	"(*repro/internal/fleet.Shard).Tick",
	"(*repro/internal/fleet.Shard).report",
	"(*repro/internal/fleet.ZoneCollector).ingest",
	"repro/internal/mobility.StepWaypoint",
	"repro/internal/mobility.StepWaypoints", // bench/ still calls it
	"(*repro/internal/energy.Bank).DrainAll",
	"(*repro/internal/mat.IncrementalQR).Append",
	"(*repro/internal/basis.Separable2D).ApplyTransposeScattered",
	"(*repro/internal/basis.Separable2D).ApplyTranspose",
	"(*repro/internal/basis.Separable2D).FactorColumns",
	"(*repro/internal/cs.opDict).sepCol",
}

// HotAmortizedStops are cache- or once-gated boundaries inside the hot
// closure: the boundary function runs per event (and is scanned), but
// its callees only run on a miss, so hotness stops propagating there.
// serve.(*Server).compile hits the CoW filter cache on the steady
// state; the query parser behind it allocates its AST freely. A factor
// column's fill runs once per operator and column, and synthesizes the
// column through the factor's transform.
var HotAmortizedStops = []string{
	"(*repro/internal/serve.Server).compile",
	"(*repro/internal/basis.colMemo).fill",
}

// ProjectAnalyzers returns the full sdlint analyzer suite with the
// project's scoping baked in.
func ProjectAnalyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism(pathMatcher(DeterministicPkgs...)),
		MutexGuard(),
		ObsHot(pathMatcher(HotPathPkgs...), ObsPath),
		ErrCheck(pathMatcher(ErrcheckScope...)),
		Lockorder(),
		CtxFlow(CtxBlocking, ModulePrefix),
		RaceGuard(),
		HotAlloc(HotEntryPoints, HotAmortizedStops),
	}
}
