package bipartite

import (
	"cmp"
	"fmt"
	"slices"
)

// ApplyDelta returns a new Graph whose incidence set is
// (E ∪ insert) \ remove, where E is g's incidence set. The receiver is
// not modified — Graphs stay immutable, which is what lets the service
// cache hand the same *Graph to concurrent requests — and the result is
// a fully independent graph (fresh CSR + transpose) whose Fingerprint
// matches FromEdges on the mutated incidence list exactly.
//
// Duplicates inside either list are merged; inserting an edge already
// present or removing one that is absent is a tolerated no-op. An edge
// named in both lists follows the set equation above: it ends up
// removed. The returned inserted/removed counts are the *effective*
// mutations — edges actually added to or deleted from E — so callers
// can detect all-no-op deltas (inserted+removed == 0 implies the result
// fingerprints identically to g).
//
// Cost is O(nnz + Δ log Δ): untouched nets have their adjacency
// segments copied wholesale; only nets named in the delta pay a merge.
func (g *Graph) ApplyDelta(insert, remove []Edge) (out *Graph, inserted, removed int, err error) {
	for _, list := range [2][]Edge{insert, remove} {
		for _, e := range list {
			if e.Net < 0 || int(e.Net) >= g.numNet || e.Vtx < 0 || int(e.Vtx) >= g.numVtx {
				return nil, 0, 0, fmt.Errorf("%w: delta edge (net=%d, vtx=%d) with %d nets, %d vertices",
					ErrInvalidEdge, e.Net, e.Vtx, g.numNet, g.numVtx)
			}
		}
	}
	ins := sortDedupeEdges(insert)
	rem := sortDedupeEdges(remove)

	out = &Graph{numVtx: g.numVtx, numNet: g.numNet}
	out.netPtr = make([]int64, g.numNet+1)
	newAdj := make([]int32, 0, len(g.netAdj)+len(ins))
	ii, ri := 0, 0
	for v := 0; v < g.numNet; v++ {
		i0 := ii
		for ii < len(ins) && int(ins[ii].Net) == v {
			ii++
		}
		r0 := ri
		for ri < len(rem) && int(rem[ri].Net) == v {
			ri++
		}
		seg := g.netAdj[g.netPtr[v]:g.netPtr[v+1]]
		if i0 == ii && r0 == ri {
			newAdj = append(newAdj, seg...)
		} else {
			var di, dr int
			newAdj, di, dr = mergeNet(newAdj, seg, ins[i0:ii], rem[r0:ri])
			inserted += di
			removed += dr
		}
		out.netPtr[v+1] = int64(len(newAdj))
	}
	out.netAdj = newAdj[:len(newAdj):len(newAdj)]
	out.buildTranspose()
	return out, inserted, removed, nil
}

// mergeNet merges one net's existing sorted adjacency with its sorted
// unique inserts, dropping vertices named in the sorted removes, and
// appends the result to dst. All three inputs are ascending, so the
// output segment is ascending and duplicate-free by construction.
func mergeNet(dst, seg []int32, ins, rem []Edge) (out []int32, inserted, removed int) {
	ai, bi, rj := 0, 0, 0
	for ai < len(seg) || bi < len(ins) {
		var x int32
		fromE, fromI := false, false
		if bi >= len(ins) || (ai < len(seg) && seg[ai] <= ins[bi].Vtx) {
			x = seg[ai]
			fromE = true
			ai++
			if bi < len(ins) && ins[bi].Vtx == x {
				bi++
				fromI = true
			}
		} else {
			x = ins[bi].Vtx
			bi++
			fromI = true
		}
		for rj < len(rem) && rem[rj].Vtx < x {
			rj++
		}
		if rj < len(rem) && rem[rj].Vtx == x {
			if fromE {
				removed++
			}
			continue
		}
		if fromI && !fromE {
			inserted++
		}
		dst = append(dst, x)
	}
	return dst, inserted, removed
}

// sortDedupeEdges returns a sorted (net-major, then vertex) copy of
// edges with exact duplicates removed. The input is not modified.
func sortDedupeEdges(edges []Edge) []Edge {
	if len(edges) == 0 {
		return nil
	}
	s := append([]Edge(nil), edges...)
	slices.SortFunc(s, func(a, b Edge) int {
		if c := cmp.Compare(a.Net, b.Net); c != 0 {
			return c
		}
		return cmp.Compare(a.Vtx, b.Vtx)
	})
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			continue
		}
		s[w] = s[i]
		w++
	}
	return s[:w]
}
