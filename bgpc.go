// Package bgpc is a Go library for parallel bipartite-graph partial
// coloring (BGPC) and distance-2 graph coloring (D2GC) on
// shared-memory machines, reproducing
//
//	M. K. Taş, K. Kaya, E. Saule: "Greed is Good: Parallel Algorithms
//	for Bipartite-Graph Partial Coloring on Multicore Architectures",
//	ICPP 2017.
//
// The package re-exports the library's user-facing API from the
// internal implementation packages:
//
//   - Bipartite graphs ([Bipartite], [NewBipartite], [ReadMatrixMarket])
//     with matrix rows acting as "nets" and columns as the vertices to
//     color.
//   - The speculative parallel coloring runner ([Color]) configured via
//     [Options], including the paper's eight named schedules
//     ([Algorithm], [Algorithms]) — vertex-based ColPack baselines and
//     the proposed net-based and hybrid variants — and the B1/B2
//     balancing heuristics.
//   - Distance-2 coloring on undirected graphs ([Undirected],
//     [ColorD2], [SequentialD2]).
//   - Validity checking and color-set statistics ([VerifyBGPC],
//     [VerifyD2], [ColorStats]).
//   - Vertex orderings ([NaturalOrder], [RandomOrder], [SmallestLast])
//     and the synthetic workload presets used by the benchmark harness
//     ([Preset], [PresetNames]).
//
// See the examples/ directory for runnable programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package bgpc

import (
	"context"
	"io"

	"bgpc/internal/bipartite"
	"bgpc/internal/compress"
	"bgpc/internal/core"
	"bgpc/internal/d1"
	"bgpc/internal/d2"
	"bgpc/internal/dist"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/limits"
	"bgpc/internal/mtx"
	"bgpc/internal/obs"
	"bgpc/internal/order"
	"bgpc/internal/schedule"
	"bgpc/internal/verify"
)

// Core graph types.
type (
	// Bipartite is the dual-CSR bipartite graph BGPC colors: nets
	// (matrix rows) define conflicts among the vertices (columns).
	Bipartite = bipartite.Graph
	// Edge is one (net, vertex) incidence of a Bipartite graph.
	Edge = bipartite.Edge
	// BipartiteStats summarizes a Bipartite graph's structure.
	BipartiteStats = bipartite.Stats
	// Undirected is the unipartite graph type used by D2GC.
	Undirected = graph.Graph
	// UndirectedEdge is one undirected edge of an Undirected graph.
	UndirectedEdge = graph.Edge
)

// Coloring configuration and results.
type (
	// Options configures a BGPC or D2GC run: thread count, OpenMP-style
	// dynamic chunk size, lazy queues, the net-based phase schedule,
	// and the balancing heuristic.
	Options = core.Options
	// Result is a finished coloring with statistics.
	Result = core.Result
	// IterStats describes one speculative iteration.
	IterStats = core.IterStats
	// Balance selects the B1/B2 balancing heuristics.
	Balance = core.Balance
	// NetColorVariant selects the net-based coloring implementation.
	NetColorVariant = core.NetColorVariant
	// AlgorithmSpec names one of the paper's algorithm configurations.
	AlgorithmSpec = core.Spec
	// ColorStats summarizes color-set cardinalities.
	ColorStats = verify.ColorStats
)

// Re-exported constants.
const (
	// Uncolored marks a vertex with no color (only visible in
	// intermediate states; results are always fully colored).
	Uncolored = core.Uncolored
	// BalanceNone, BalanceB1, BalanceB2 select the balancing policy.
	BalanceNone = core.BalanceNone
	BalanceB1   = core.BalanceB1
	BalanceB2   = core.BalanceB2
	// NetTwoPass, NetV1, NetV1Reverse select the net coloring variant.
	NetTwoPass   = core.NetTwoPass
	NetV1        = core.NetV1
	NetV1Reverse = core.NetV1Reverse
	// NetCRAll runs net-based conflict removal on every iteration.
	NetCRAll = core.NetCRAll
)

// NewBipartite builds a bipartite graph with numNet nets (rows) and
// numVtx vertices (columns) from an incidence list; duplicates merge.
func NewBipartite(numNet, numVtx int, edges []Edge) (*Bipartite, error) {
	return bipartite.FromEdges(numNet, numVtx, edges)
}

// NewBipartiteFromNets builds a bipartite graph from per-net vertex
// lists.
func NewBipartiteFromNets(numVtx int, nets [][]int32) (*Bipartite, error) {
	return bipartite.FromNetLists(numVtx, nets)
}

// NewUndirected builds an undirected graph on n vertices.
func NewUndirected(n int, edges []UndirectedEdge) (*Undirected, error) {
	return graph.FromEdges(n, edges)
}

// UndirectedFromBipartite reinterprets a square, structurally symmetric
// bipartite graph (symmetric matrix) as an undirected graph for D2GC.
func UndirectedFromBipartite(b *Bipartite) (*Undirected, error) {
	return graph.FromBipartite(b)
}

// Color runs the parallel BGPC algorithm configured by opts on g.
func Color(g *Bipartite, opts Options) (*Result, error) {
	return core.Color(g, opts)
}

// ErrCanceled is the sentinel matched by errors.Is when a context-
// aware coloring run is cut short; the concrete error is a
// *CancelError with partial-progress statistics.
var ErrCanceled = core.ErrCanceled

// CancelError reports a canceled or deadline-expired coloring run.
type CancelError = core.CancelError

// ColorContext is Color with cooperative cancellation: the parallel
// loops poll ctx at chunk-dispatch granularity, and on cancellation the
// call returns the best valid partial coloring (repaired sequentially;
// remaining vertices Uncolored) together with a *CancelError.
func ColorContext(ctx context.Context, g *Bipartite, opts Options) (*Result, error) {
	return core.ColorCtx(ctx, g, opts)
}

// ColorD2Context is ColorD2 with cooperative cancellation (see
// ColorContext).
func ColorD2Context(ctx context.Context, g *Undirected, opts Options) (*Result, error) {
	return d2.ColorCtx(ctx, g, opts)
}

// FinishSequential completes a valid partial BGPC coloring in place
// with the sequential greedy and returns how many vertices it colored
// — the graceful-degradation path for deadline-expired runs.
func FinishSequential(g *Bipartite, colors []int32) int {
	return core.FinishSequential(g, colors)
}

// FinishSequentialD2 completes a valid partial distance-2 coloring in
// place (see FinishSequential).
func FinishSequentialD2(g *Undirected, colors []int32) int {
	return d2.FinishSequential(g, colors)
}

// VerifyBGPCPartial returns nil iff colors is a valid partial BGPC
// state: Uncolored entries allowed, colored net-mates distinct.
func VerifyBGPCPartial(g *Bipartite, colors []int32) error {
	return verify.BGPCPartial(g, colors)
}

// VerifyD2Partial returns nil iff colors is a valid partial distance-2
// state.
func VerifyD2Partial(g *Undirected, colors []int32) error {
	return verify.D2GCPartial(g, colors)
}

// Sequential runs the single-threaded greedy BGPC baseline in the given
// vertex order (nil = natural).
func Sequential(g *Bipartite, vertexOrder []int32) *Result {
	return core.Sequential(g, vertexOrder)
}

// ColorD2 runs the parallel D2GC algorithm configured by opts on g.
func ColorD2(g *Undirected, opts Options) (*Result, error) {
	return d2.Color(g, opts)
}

// SequentialD2 runs the single-threaded greedy D2GC baseline.
func SequentialD2(g *Undirected, vertexOrder []int32) *Result {
	return d2.Sequential(g, vertexOrder)
}

// ColorD1 runs the speculative parallel distance-1 coloring (the base
// case of the paper's framework; net-phase options are rejected).
func ColorD1(g *Undirected, opts Options) (*Result, error) {
	return d1.Color(g, opts)
}

// SequentialD1 runs the single-threaded greedy distance-1 baseline.
func SequentialD1(g *Undirected, vertexOrder []int32) *Result {
	return d1.Sequential(g, vertexOrder)
}

// VerifyD1 returns nil iff colors is a valid distance-1 coloring of g.
func VerifyD1(g *Undirected, colors []int32) error {
	return d1.Verify(g, colors)
}

// Recolor performs one iterated-greedy compaction pass over a valid
// BGPC coloring (never increases the color count; see
// core.Recolor).
func Recolor(g *Bipartite, colors []int32) ([]int32, int, error) {
	return core.Recolor(g, colors)
}

// RecolorToConvergence repeats Recolor until the color count stops
// improving or maxRounds passes run.
func RecolorToConvergence(g *Bipartite, colors []int32, maxRounds int) ([]int32, int, int, error) {
	return core.RecolorToConvergence(g, colors, maxRounds)
}

// JacobianPattern couples a Jacobian sparsity pattern with a column
// coloring for compressed finite differences.
type JacobianPattern = compress.Pattern

// Jacobian is a recovered sparse Jacobian.
type Jacobian = compress.Jacobian

// Evaluator computes y = F(x) for Jacobian estimation.
type Evaluator = compress.Evaluator

// NewJacobianPattern validates the coloring against the sparsity
// pattern and returns the compression pattern (the paper's motivating
// numerical-optimization application).
func NewJacobianPattern(g *Bipartite, colors []int32) (*JacobianPattern, error) {
	return compress.NewPattern(g, colors)
}

// DistStats reports a distributed run's communication behaviour.
type DistStats = dist.Stats

// ColorDistributed runs the distributed-memory speculative BGPC
// simulation (the Bozdağ et al. framework the paper's shared-memory
// algorithms descend from): columns are block-partitioned over `ranks`
// simulated processes that exchange boundary colors per superstep.
// Deterministic for a fixed rank count.
func ColorDistributed(g *Bipartite, ranks int) ([]int32, DistStats, error) {
	return dist.ColorBGPC(g, ranks, 0)
}

// ColorDistributedD2 is the distributed simulation for distance-2
// coloring of an undirected graph (the problem the framework papers
// target directly).
func ColorDistributedD2(g *Undirected, ranks int) ([]int32, DistStats, error) {
	return dist.ColorD2GC(g, ranks, 0)
}

// RMAT generates a Graph500-style recursive-matrix graph (see
// gen.RMAT). Useful for stress-testing beyond the built-in presets.
func RMAT(scaleExp, edgeFactor int, a, b, c float64, symmetric bool, seed uint64) *Bipartite {
	return gen.RMAT(scaleExp, edgeFactor, a, b, c, symmetric, seed)
}

// Algorithm resolves one of the paper's algorithm names — V-V, V-V-64,
// V-V-64D, V-N∞ (or V-Ninf), V-N1, V-N2, N1-N2, N2-N2 — to its Options.
func Algorithm(name string) (Options, error) {
	return core.ParseAlgorithm(name)
}

// Algorithms lists the paper's eight named configurations in
// presentation order.
func Algorithms() []AlgorithmSpec {
	return core.NamedAlgorithms()
}

// VerifyBGPC returns nil iff colors is a valid partial coloring of g.
func VerifyBGPC(g *Bipartite, colors []int32) error {
	return verify.BGPC(g, colors)
}

// VerifyD2 returns nil iff colors is a valid distance-2 coloring of g.
func VerifyD2(g *Undirected, colors []int32) error {
	return verify.D2GC(g, colors)
}

// Stats computes color-set cardinality statistics for a coloring.
func Stats(colors []int32) ColorStats {
	return verify.Stats(colors)
}

// Plan is a lock-free color-set execution plan (see NewPlan).
type Plan = schedule.Plan

// NewPlan turns a coloring into a parallel execution plan: Run
// processes color sets in order with one barrier between sets, items
// within a set concurrently. The coloring guarantees items in a set
// have disjoint footprints, so the user function needs no locks.
func NewPlan(colors []int32) (*Plan, error) {
	return schedule.NewPlan(colors)
}

// Observability re-exports (see internal/obs): structured per-phase
// trace events and pluggable sinks.
type (
	// Observer emits one trace event per phase per speculative
	// iteration. Attach it via Options.Obs; nil disables observability
	// at ~zero cost.
	Observer = obs.Observer
	// TraceEvent is one structured per-phase trace record.
	TraceEvent = obs.Event
	// TraceSink receives trace events (JSON-lines or a user
	// implementation).
	TraceSink = obs.Sink
)

// Request-scoped telemetry re-exports (see internal/obs): a Recorder
// travels in a context.Context through ColorContext / ColorD2Context
// and captures that one run's timeline — named spans plus one event per
// phase per speculative iteration — without any process-wide trace
// sink. This is the same machinery the bgpcd daemon uses for its
// /debug/requests timelines.
type (
	// Recorder captures one run's telemetry into a bounded timeline.
	// Nil is a valid disabled recorder.
	Recorder = obs.Recorder
	// Timeline is a Recorder snapshot: spans, per-iteration events,
	// attributes, and drop counts.
	Timeline = obs.Timeline
	// TimelineSpan is one named interval of a Timeline.
	TimelineSpan = obs.Span
	// TimelineIter is one runner phase of one speculative iteration.
	TimelineIter = obs.IterEvent
)

// NewRecorder returns a Recorder for one run. id is a correlation id
// (see NewRequestID); maxSpans/maxIters < 1 mean the library defaults.
func NewRecorder(id string, maxSpans, maxIters int) *Recorder {
	return obs.NewRecorder(id, maxSpans, maxIters)
}

// ContextWithRecorder returns a context carrying rec; the context-aware
// runners (ColorContext, ColorD2Context) hand it their phase events.
func ContextWithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return obs.ContextWithRecorder(ctx, rec)
}

// RecorderFromContext returns the context's Recorder, or nil.
func RecorderFromContext(ctx context.Context) *Recorder {
	return obs.RecorderFromContext(ctx)
}

// NewRequestID mints a 32-hex-character random correlation id, the
// shape of a W3C trace-id.
func NewRequestID() string { return obs.NewRequestID() }

// WritePrometheus writes the library's full metrics surface — counters,
// registered gauges, and latency/size histograms — in Prometheus text
// exposition format v0.0.4 (the body of bgpcd's /metrics endpoint).
func WritePrometheus(w io.Writer) error { return obs.WritePrometheus(w) }

// NewObserver returns an Observer emitting into sink (nil sink =
// disabled observer).
func NewObserver(sink TraceSink) *Observer { return obs.New(sink) }

// NewJSONLTrace returns a sink writing one JSON object per event to w.
func NewJSONLTrace(w io.Writer) *obs.JSONLSink { return obs.NewJSONL(w) }

// NaturalOrder returns the identity vertex order.
func NaturalOrder(n int) []int32 { return order.Natural(n) }

// RandomOrder returns a seeded random vertex order.
func RandomOrder(n int, seed uint64) []int32 { return order.Random(n, seed) }

// SmallestLast returns the Matula–Beck smallest-last order on g's
// distance-2 conflict structure (ColPack's color-reducing order).
func SmallestLast(g *Bipartite) []int32 { return order.SmallestLast(g) }

// LargestFirst orders vertices by non-increasing distance-2 degree.
func LargestFirst(g *Bipartite) []int32 { return order.LargestFirst(g) }

// IncidenceDegree orders vertices so each is placed when most
// constrained by already-placed conflict neighbours (ColPack's
// incidence-degree order).
func IncidenceDegree(g *Bipartite) []int32 { return order.IncidenceDegree(g) }

// DynamicLargestFirst orders vertices by largest remaining degree in
// the residual conflict graph (ColPack's dynamic-largest-first).
func DynamicLargestFirst(g *Bipartite) []int32 { return order.DynamicLargestFirst(g) }

// ReadMatrixMarket parses a MatrixMarket coordinate stream into a
// bipartite graph (rows = nets, columns = vertices).
func ReadMatrixMarket(r io.Reader) (*Bipartite, error) { return mtx.Read(r) }

// ReadMatrixMarketFile parses the MatrixMarket file at path.
func ReadMatrixMarketFile(path string) (*Bipartite, error) { return mtx.ReadFile(path) }

// ParseLimits caps what an untrusted MatrixMarket document may declare
// (rows, columns, nonzeros, line length). The zero value of any field
// falls back to the library default; see DefaultParseLimits.
type ParseLimits = limits.ParseLimits

// DefaultParseLimits returns the caps ReadMatrixMarket enforces when
// none are supplied explicitly.
func DefaultParseLimits() ParseLimits { return limits.DefaultParseLimits() }

// ErrMatrixTooLarge reports an input whose declared or actual size
// exceeds the configured ParseLimits (or a job estimate over a memory
// budget). Match with errors.Is.
var ErrMatrixTooLarge = limits.ErrTooLarge

// ReadMatrixMarketLimited is ReadMatrixMarket with explicit caps on
// the untrusted input. Inputs over a cap fail with ErrMatrixTooLarge;
// malformed ones with a format error. Allocation is bounded by bytes
// actually read, never by the header's claims.
func ReadMatrixMarketLimited(r io.Reader, lim ParseLimits) (*Bipartite, error) {
	return mtx.ReadLimited(r, lim)
}

// ReadMatrixMarketFileLimited is ReadMatrixMarketFile with explicit
// caps on the untrusted input.
func ReadMatrixMarketFileLimited(path string, lim ParseLimits) (*Bipartite, error) {
	return mtx.ReadFileLimited(path, lim)
}

// WriteMatrixMarket writes g in MatrixMarket coordinate pattern form.
func WriteMatrixMarket(w io.Writer, g *Bipartite) error { return mtx.Write(w, g) }

// Preset builds one of the synthetic benchmark matrices modeled on the
// paper's test-bed (see PresetNames) at the given scale (1.0 = default
// benchmark size).
func Preset(name string, scale float64) (*Bipartite, error) {
	return gen.Preset(name, scale)
}

// PresetNames lists the eight synthetic workloads in the paper's
// Table II order.
func PresetNames() []string { return gen.PresetNames() }

// SymmetricPresetNames lists the workloads usable for D2GC.
func SymmetricPresetNames() []string { return gen.SymmetricPresetNames() }
