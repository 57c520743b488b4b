package main

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bgpc/internal/bipartite"
)

// refGraph is the benchmark's own copy of an input graph: nets (rows)
// listing their vertices (columns). It is built from the edge lists the
// benchmark generated or sent, never from a structure the program under
// test returned, so checking a coloring against it is independent of
// the program's own CSR and verifier.
type refGraph struct {
	nNet, nVtx int
	ptr        []int32
	adj        []int32
}

// edgeKey packs an edge into one comparable word.
type edgeKey = uint64

func keyOf(net, vtx int32) edgeKey { return uint64(uint32(net))<<32 | uint64(uint32(vtx)) }

func unkey(k edgeKey) (net, vtx int32) { return int32(k >> 32), int32(uint32(k)) }

// newRefGraph builds a refGraph from a sorted, duplicate-free edge key
// list (see sortedKeys).
func newRefGraph(nNet, nVtx int, keys []edgeKey) *refGraph {
	g := &refGraph{nNet: nNet, nVtx: nVtx, ptr: make([]int32, nNet+1), adj: make([]int32, len(keys))}
	for _, k := range keys {
		net, _ := unkey(k)
		g.ptr[net+1]++
	}
	for i := 0; i < nNet; i++ {
		g.ptr[i+1] += g.ptr[i]
	}
	for i, k := range keys {
		_, vtx := unkey(k)
		g.adj[i] = vtx
	}
	return g
}

// refFromBipartite copies g's incidences into a refGraph. It is used for
// graphs the benchmark obtains from the generators at set-up time.
func refFromBipartite(g *bipartite.Graph) *refGraph {
	keys := make([]edgeKey, 0, g.NumEdges())
	for v := int32(0); int(v) < g.NumNets(); v++ {
		for _, u := range g.Vtxs(v) {
			keys = append(keys, keyOf(v, u))
		}
	}
	return newRefGraph(g.NumNets(), g.NumVertices(), sortedKeys(keys))
}

func sortedKeys(keys []edgeKey) []edgeKey {
	slices.Sort(keys)
	return slices.Compact(keys)
}

func (g *refGraph) nnz() int { return len(g.adj) }

func (g *refGraph) keys() []edgeKey {
	out := make([]edgeKey, 0, len(g.adj))
	for v := 0; v < g.nNet; v++ {
		for _, u := range g.adj[g.ptr[v]:g.ptr[v+1]] {
			out = append(out, keyOf(int32(v), u))
		}
	}
	return out
}

func (g *refGraph) edges() []bipartite.Edge {
	ks := g.keys()
	out := make([]bipartite.Edge, len(ks))
	for i, k := range ks {
		out[i].Net, out[i].Vtx = unkey(k)
	}
	return out
}

// lowerBound is Lemma 1's bound on the colors of any valid partial
// coloring: the largest net.
func (g *refGraph) lowerBound() int {
	lb := 1
	for v := 0; v < g.nNet; v++ {
		lb = max(lb, int(g.ptr[v+1]-g.ptr[v]))
	}
	return lb
}

// closed returns the distance-2 view of a square, structurally
// symmetric graph: every row extended by its diagonal, so that two
// vertices share a net exactly when they are at distance at most 2.
func (g *refGraph) closed() *refGraph {
	keys := g.keys()
	for v := 0; v < g.nNet; v++ {
		keys = append(keys, keyOf(int32(v), int32(v)))
	}
	return newRefGraph(g.nNet, g.nVtx, sortedKeys(keys))
}

// applyDelta returns (E ∪ insert) \ remove, the delta semantics the
// service documents.
func (g *refGraph) applyDelta(insert, remove []bipartite.Edge) *refGraph {
	keys := g.keys()
	for _, e := range insert {
		keys = append(keys, keyOf(e.Net, e.Vtx))
	}
	keys = sortedKeys(keys)
	if len(remove) > 0 {
		drop := make(map[edgeKey]bool, len(remove))
		for _, e := range remove {
			drop[keyOf(e.Net, e.Vtx)] = true
		}
		keys = slices.DeleteFunc(keys, func(k edgeKey) bool { return drop[k] })
	}
	return newRefGraph(g.nNet, g.nVtx, keys)
}

// has reports whether the edge is present.
func (g *refGraph) has(net, vtx int32) bool {
	_, ok := slices.BinarySearch(g.adj[g.ptr[net]:g.ptr[net+1]], vtx)
	return ok
}

// matrixMarket renders g as a pattern coordinate document.
func (g *refGraph) matrixMarket() string {
	var b strings.Builder
	b.Grow(16 + len(g.adj)*12)
	b.WriteString("%%MatrixMarket matrix coordinate pattern general\n")
	fmt.Fprintf(&b, "%d %d %d\n", g.nNet, g.nVtx, len(g.adj))
	var buf []byte
	for v := 0; v < g.nNet; v++ {
		for _, u := range g.adj[g.ptr[v]:g.ptr[v+1]] {
			buf = strconv.AppendInt(buf[:0], int64(v+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(u+1), 10)
			buf = append(buf, '\n')
			b.Write(buf)
		}
	}
	return b.String()
}

var errInvalidColoring = errors.New("invalid coloring")

// check verifies that colors is a complete partial coloring of g: one
// non-negative color per vertex and no two vertices of a net sharing a
// color. It returns the number of distinct colors used.
func (g *refGraph) check(colors []int32) (int, error) {
	if len(colors) != g.nVtx {
		return 0, fmt.Errorf("%w: %d colors for %d vertices", errInvalidColoring, len(colors), g.nVtx)
	}
	// No greedy or partial coloring of n vertices needs a color of n or
	// more; rejecting one also bounds the tables below by n.
	maxC := int32(-1)
	for u, c := range colors {
		if c < 0 {
			return 0, fmt.Errorf("%w: vertex %d uncolored", errInvalidColoring, u)
		}
		if int(c) >= len(colors) {
			return 0, fmt.Errorf("%w: vertex %d has color %d, not below the %d vertices", errInvalidColoring, u, c, len(colors))
		}
		maxC = max(maxC, c)
	}
	stamp := make([]int32, maxC+1)
	for v := 0; v < g.nNet; v++ {
		for _, u := range g.adj[g.ptr[v]:g.ptr[v+1]] {
			c := colors[u]
			if stamp[c] == int32(v+1) {
				return 0, fmt.Errorf("%w: net %d holds color %d twice", errInvalidColoring, v, c)
			}
			stamp[c] = int32(v + 1)
		}
	}
	used := 0
	seen := make([]bool, maxC+1)
	for _, c := range colors {
		if !seen[c] {
			seen[c] = true
			used++
		}
	}
	return used, nil
}
