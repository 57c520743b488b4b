// Package d1 implements distance-1 (ordinary) greedy graph coloring,
// the base case of the paper's speculative framework (its Algorithms
// 1–3 are stated for this general case). The paper's background
// section uses D1GC as the reference point: sequential D1GC is fast in
// practice, and the optimistic color-then-repair loop originates here
// (Çatalyürek et al., ParCo 2012).
//
// Color is internal/core's runner on the own-net view of the graph
// (graph.Graph.OwnNet), in which each vertex's only net is its own
// closed neighbourhood. Core's vertex phases then forbid exactly the
// neighbours' colors and detect conflicts over edges with the
// smaller-id tie-break, and the scheduling options (dynamic chunk,
// lazy queues), orderings, B1/B2 balancing, tracing and failpoints
// are core's own. Net-based phases are rejected: a distance-1
// conflict is a single edge, and on the view they would enforce
// distance 2. Sequential, the single-threaded greedy baseline, is
// core.Sequential on the same view.
package d1

import (
	"fmt"

	"bgpc/internal/core"
	"bgpc/internal/graph"
)

// Options configures a D1GC run. Net-phase fields of core.Options are
// rejected: distance-1 coloring has no net-based phases.
type Options = core.Options

// Sequential runs single-threaded greedy D1GC in the given order
// (nil = natural) with first-fit, as core.Sequential on g's own-net
// view; at most maxdeg+1 colors are used.
func Sequential(g *graph.Graph, vertexOrder []int32) *core.Result {
	return core.Sequential(g.OwnNet(), vertexOrder)
}

// Color runs the speculative parallel D1GC loop (paper Algorithms 1–3
// with nbor(v) = adjacency) as core.Color on g's own-net view: every
// iteration colors the work queue optimistically, then re-queues each
// vertex that shares its color with a smaller-id neighbour, until a
// fixed point.
func Color(g *graph.Graph, opts Options) (*core.Result, error) {
	if opts.NetColorIters != 0 || opts.NetCRIters != 0 {
		return nil, fmt.Errorf("d1: net-based phases are undefined for distance-1 coloring (NetColorIters=%d, NetCRIters=%d)", opts.NetColorIters, opts.NetCRIters)
	}
	return core.Color(g.OwnNet(), opts)
}

// Verify returns nil iff colors is a valid distance-1 coloring of g.
func Verify(g *graph.Graph, colors []int32) error {
	if len(colors) != g.NumVertices() {
		return fmt.Errorf("d1: %d colors for %d vertices", len(colors), g.NumVertices())
	}
	for v, cv := range colors {
		if cv < 0 {
			return fmt.Errorf("d1: vertex %d uncolored", v)
		}
		for _, u := range g.Nbors(int32(v)) {
			if colors[u] == cv {
				return fmt.Errorf("d1: edge (%d,%d) monochromatic (%d)", v, u, cv)
			}
		}
	}
	return nil
}
