package verify

import (
	"fmt"

	"bgpc/internal/bipartite"
	"bgpc/internal/graph"
)

// BGPCPartial checks that colors is a valid *partial* BGPC state:
// entries may be Uncolored (negative), but no two colored vertices of
// any net may share a color. It is the validity contract of the
// repaired state a canceled core.ColorCtx returns; BGPC adds the
// every-vertex-colored check for complete colorings.
//
// This is the hot path of every test and benchmark validity check, so
// instead of a per-net map (whose clearing loop dominated profiles) it
// uses a pair of reusable mark arrays stamped by net id: stamp[c] == v+1
// records that color c was already claimed in net v, by vertex
// owner[c]. One O(maxColor) allocation replaces NumNets map clears.
func BGPCPartial(g *bipartite.Graph, colors []int32) error {
	if len(colors) != g.NumVertices() {
		return fmt.Errorf("verify: %d colors for %d vertices", len(colors), g.NumVertices())
	}
	stamp, owner := marks(colors)
	for v := int32(0); int(v) < g.NumNets(); v++ {
		tag := v + 1
		for _, u := range g.Vtxs(v) {
			c := colors[u]
			if c < 0 {
				continue
			}
			if stamp[c] == tag && owner[c] != u {
				return fmt.Errorf("verify: net %d has vertices %d and %d both colored %d", v, owner[c], u, c)
			}
			stamp[c] = tag
			owner[c] = u
		}
	}
	return nil
}

// D2GCPartial checks that colors is a valid partial distance-2 state:
// Uncolored entries are permitted, colored vertices within distance
// two must differ. Counterpart of D2GC for canceled d2.ColorCtx runs.
//
// Every distance-2 pair has a middle vertex, so checking each vertex's
// closed neighbourhood {v} ∪ nbor(v) for duplicate colors covers both
// distance-1 and distance-2 conflicts. Same stamped mark-array
// construction as BGPCPartial, keyed by the middle vertex.
func D2GCPartial(g *graph.Graph, colors []int32) error {
	if len(colors) != g.NumVertices() {
		return fmt.Errorf("verify: %d colors for %d vertices", len(colors), g.NumVertices())
	}
	stamp, owner := marks(colors)
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		tag := v + 1
		if cv := colors[v]; cv >= 0 {
			stamp[cv] = tag
			owner[cv] = v
		}
		for _, u := range g.Nbors(v) {
			c := colors[u]
			if c < 0 {
				continue
			}
			if stamp[c] == tag && owner[c] != u {
				return fmt.Errorf("verify: vertices %d and %d within distance 2 (via %d) both colored %d", owner[c], u, v, c)
			}
			stamp[c] = tag
			owner[c] = u
		}
	}
	return nil
}

// marks returns the zeroed stamp and owner arrays for the colors in
// colors.
func marks(colors []int32) (stamp, owner []int32) {
	n := int32(0)
	for _, c := range colors {
		n = max(n, c+1)
	}
	return make([]int32, n), make([]int32, n)
}
