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
	start := time.Now()
	c := NewColors(g.NumVertices())
	f := NewForbidden(ForbiddenSize(g))
	work := greedy(g, c, vertexOrder, f, true, masks)
	res := &Result{
		Colors:       c.c,
		Iterations:   1,
		Time:         time.Since(start),
		TotalWork:    work,
		CriticalWork: work,
	}
	res.ColoringTime = res.Time
	res.countColors(f)
	return res
}

// FinishSequential completes a valid partial BGPC coloring in place:
// every Uncolored vertex is colored by the sequential greedy first-fit
// against its (already valid) distance-2 neighbourhood, in ascending
// id order. It returns the number of vertices it colored. The input
// must be conflict-free on its colored subset (e.g. the repaired state
// a canceled ColorCtx returns); the output is then a complete valid
// coloring.
func FinishSequential(g *bipartite.Graph, colors []int32) int {
	return finishSequential(g, colors, true)
}

// finishSequential is FinishSequential with the color masks switched
// on or off. The masks are built from the colors already present, a
// walk of every masked net, so they are used only when at least
// 1/detectQueueShare of the vertices are to be colored, the share from
// which the runner's later vertex phases rebuild them.
func finishSequential(g *bipartite.Graph, colors []int32, masks bool) int {
	uncolored := 0
	for _, col := range colors {
		if col == Uncolored {
			uncolored++
		}
	}
	masks = masks && detectQueueShare*uncolored >= len(colors)
	greedy(g, &Colors{c: colors}, nil, NewForbidden(ForbiddenSize(g)), false, masks)
	return uncolored
}

// greedy is the sequential greedy first fit: it gives every Uncolored
// vertex of order (nil = ascending ids) its first-fit color against the
// colors already present, and returns the work model's charge. f is
// the scan's forbidden set. fresh says that every vertex starts
// Uncolored: in natural order on sorted nets a vertex's scan then stops
// at its own id, and the masks start empty. Otherwise every net is
// scanned to its end and the masks are built from the colors.
func greedy(g *bipartite.Graph, c *Colors, order []int32, f *Forbidden, fresh, masks bool) (work int64) {
	var m *netMasks
	if masks && hasRows(g) {
		m = acquireMasks(g, 1)
		defer m.release()
		if !fresh {
			m.build(g, c, nil, &Options{Threads: 1}, nil)
		}
	}
	// In natural order from fresh colors every vertex ≥ u is still
	// Uncolored when u is colored, so on sorted nets u's scan can stop
	// there.
	early := order == nil && fresh && g.SortedNets()
	n := len(order)
	if order == nil {
		n = c.Len()
	}
	for i := 0; i < n; i++ {
		u := int32(i)
		if order != nil {
			u = order[i]
		}
		if c.c[u] != Uncolored {
			continue
		}
		below := int32(fullScan)
		if early {
			below = u
		}
		f.Reset()
		if m != nil {
			work += m.color(g, u, c, f, 0, below, false)
			continue
		}
		work += f.addNbrs(g, u, c, below)
		c.c[u] = FirstFit(f)
	}
	return work
}
