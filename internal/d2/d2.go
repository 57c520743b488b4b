// Package d2 implements the paper's distance-2 graph coloring (D2GC)
// algorithms (Section IV) as BGPC on the closed-neighbourhood view of
// an undirected graph, in which every vertex v acts as the net
// covering N[v] (graph.Graph.Closed). On that view internal/core's
// vertex phases scan the distance-≤2 neighbourhood, its net phases
// are Algorithms 9 and 10, and the scheduling options, hybrid V-N/N-N
// schedules, B1/B2 balancing, cancellation and repair are core's own.
// This package only adapts the signatures.
package d2

import (
	"context"

	"bgpc/internal/core"
	"bgpc/internal/graph"
)

// Options reuses the BGPC option set; NetColorVariant is ignored (the
// paper defines a single net-based D2GC coloring, Algorithm 9, which
// is core's two-pass variant on the closed view).
type Options = core.Options

// Sequential runs single-threaded greedy D2GC in the given order
// (nil = natural) with first-fit. Its TotalWork is the T₁ baseline of
// the cost model.
func Sequential(g *graph.Graph, vertexOrder []int32) *core.Result {
	return core.Sequential(g.Closed(), vertexOrder)
}

// Color runs the speculative parallel D2GC loop with the schedule
// described by opts (see core.Options; the same algorithm names V-V-64D,
// V-N1, V-N2, N1-N2 … apply, per the paper's Table V).
func Color(g *graph.Graph, opts Options) (*core.Result, error) {
	return ColorCtx(context.Background(), g, opts)
}

// ColorCtx is Color with cooperative cancellation, as core.ColorCtx:
// on cancellation the run returns the best valid partial distance-2
// coloring (conflicts repaired sequentially, the rest Uncolored)
// together with a *core.CancelError matched by
// errors.Is(err, core.ErrCanceled).
func ColorCtx(ctx context.Context, g *graph.Graph, opts Options) (*core.Result, error) {
	opts.NetColorVariant = core.NetTwoPass
	return core.ColorCtx(ctx, g.Closed(), opts)
}

// FinishSequential completes a valid partial distance-2 coloring in
// place with the sequential greedy first-fit, ascending id order, and
// returns the number of vertices it colored. The input must be
// distance-2 valid on its colored subset (e.g. a canceled ColorCtx's
// repaired state).
func FinishSequential(g *graph.Graph, colors []int32) int {
	return core.FinishSequential(g.Closed(), colors)
}

// Repair makes an arbitrary partial distance-2 coloring valid in place
// by sequential conflict removal, returning the number of vertices
// still colored: every vertex v keeps the first occurrence of each
// color in N[v] (v itself first, then its neighbours in ascending id)
// and uncolors later duplicates. Every distance-≤2 pair shares some
// closed neighbourhood, so one pass leaves the colored subset valid.
func Repair(g *graph.Graph, colors []int32) int {
	return core.Repair(g.Closed(), colors)
}
