package core

import (
	"time"

	"bgpc/internal/bipartite"
)

// Sequential runs the single-threaded greedy BGPC algorithm: vertices
// are colored one by one in the given order (nil = natural) with the
// first-fit Policy. No conflict detection is needed (paper Table II's
// sequential baseline). The result's TotalWork is the sequential work
// baseline T₁ used by the cost model: every net of every vertex is
// charged in full, also where natural order lets the scan stop early.
// Every vertex starts Uncolored, so large nets' color masks (see
// netMasks) give the scan's colors in any order.
func Sequential(g *bipartite.Graph, vertexOrder []int32) *Result {
	return sequential(g, vertexOrder, true)
}

// sequential is Sequential with the color masks switched on or off.
func sequential(g *bipartite.Graph, vertexOrder []int32, masks bool) *Result {
	n := g.NumVertices()
	start := time.Now()
	c := NewColors(n)
	bound := g.MaxColorUpperBound() + 1
	f := NewForbidden(bound)
	var m *netMasks
	if masks {
		m = acquireMasks(g, 1, bound)
		defer m.release()
	}
	var work int64
	colorOne := func(u, below int32) {
		f.Reset()
		if m != nil {
			work += m.color(g, u, c, f, 0, below)
			return
		}
		work += f.addNbrs(g, u, c, below)
		c.c[u] = FirstFit(f)
	}
	if vertexOrder == nil {
		// In natural order every vertex ≥ u is still Uncolored when u
		// is colored, so on sorted nets u's scan can stop there.
		sorted := g.SortedNets()
		for u := int32(0); int(u) < n; u++ {
			below := int32(fullScan)
			if sorted {
				below = u
			}
			colorOne(u, below)
		}
	} else {
		for _, u := range vertexOrder {
			colorOne(u, fullScan)
		}
	}
	res := &Result{
		Colors:       c.c,
		Iterations:   1,
		Time:         time.Since(start),
		TotalWork:    work,
		CriticalWork: work,
	}
	res.ColoringTime = res.Time
	res.countColors()
	return res
}
