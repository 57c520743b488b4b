package core

import "bgpc/internal/bipartite"

// Repair makes an arbitrary partial BGPC coloring valid in place by
// one sequential net-based conflict removal (conflictNetPhase at one
// thread): each net, in id order, keeps the first holder of every color
// and uncolors later duplicates, which never creates a new conflict, so
// one O(nnz) pass suffices. Returns the number of vertices still
// colored.
//
// A canceled run repairs its partial state with it, and the
// incremental-recoloring path (internal/delta) calls it after a delta
// applied to a cached graph turns the cached coloring into exactly that
// kind of possibly-conflicting partial state: uncolor the dirty set,
// repair for safety, then FinishSequential the holes.
func Repair(g *bipartite.Graph, colors []int32) (colored int) {
	one := &Options{Threads: 1}
	conflictNetPhase(g, &Colors{c: colors}, newScratch(g, 1, BalanceNone), one, NewWorkCounters(1), nil)
	for _, c := range colors {
		if c >= 0 {
			colored++
		}
	}
	return colored
}
