// Package graph provides the undirected unipartite graph representation
// used by the distance-2 graph coloring (D2GC) algorithms.
//
// Adjacency lists are CSR-packed, sorted, duplicate-free, and never
// contain self-loops. Graphs are built either from an undirected edge
// list or from a square, structurally symmetric bipartite graph (the
// paper derives its D2GC inputs from symmetric matrices the same way).
//
// Each vertex's CSR segment stores its closed neighbourhood with the
// vertex first, [v, nbor(v)…]. Nbors returns the sorted tail; Closed
// exposes the whole segments as a bipartite graph in which every
// vertex is the net over its closed neighbourhood, the form in which
// the paper's Section IV reduces D2GC to BGPC. OwnNet exposes the same
// segments with each vertex in its own net only, the form in which
// D1GC runs on the BGPC kernels.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"bgpc/internal/bipartite"
)

// Graph is an immutable undirected graph in CSR form.
type Graph struct {
	n      int
	ptr    []int64          // segment bounds, len n+1
	adj    []int32          // [v, nbor(v)…] per vertex
	closed *bipartite.Graph // view over ptr/adj, built once

	ownNetOnce sync.Once
	ownNet     *bipartite.Graph // built on first OwnNet call
}

// Edge is one undirected edge {U, V}.
type Edge struct {
	U, V int32
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)-g.n) / 2 }

// Nbors returns the sorted neighbour list of v (nbor(v) in the paper).
// The slice aliases internal storage and must not be modified.
func (g *Graph) Nbors(v int32) []int32 { return g.adj[g.ptr[v]+1 : g.ptr[v+1]] }

// Deg returns |nbor(v)|.
func (g *Graph) Deg(v int32) int { return int(g.ptr[v+1]-g.ptr[v]) - 1 }

// Closed returns the closed-neighbourhood view of g: a bipartite graph
// whose net v is N[v] with v first, so that BGPC on the view is D2GC
// on g. The view aliases g's storage and is built once with g; it is
// meant for the coloring kernels only (see bipartite.ClosedView).
func (g *Graph) Closed() *bipartite.Graph { return g.closed }

// OwnNet returns the own-net view of g: a bipartite graph whose net v
// is N[v] and whose vertex v is in net v alone, so that the vertex
// phases of the BGPC kernels on the view are D1GC on g (see
// bipartite.OwnNetView). The view aliases g's storage; it is built on
// the first call, so graphs colored only at distance 2 never pay for
// its vertex-direction arrays.
func (g *Graph) OwnNet() *bipartite.Graph {
	g.ownNetOnce.Do(func() { g.ownNet = bipartite.OwnNetView(g.ptr, g.adj) })
	return g.ownNet
}

// MaxDeg returns the maximum vertex degree.
func (g *Graph) MaxDeg() int {
	maxDeg := 0
	for v := int32(0); int(v) < g.n; v++ {
		if d := g.Deg(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// ErrInvalidEdge reports an endpoint outside [0, n) or a self-loop.
var ErrInvalidEdge = errors.New("graph: invalid edge")

// FromEdges builds an undirected graph on n vertices. Duplicate edges
// are merged; self-loops are rejected.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("%w: (%d,%d) out of range n=%d", ErrInvalidEdge, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("%w: self-loop at %d", ErrInvalidEdge, e.U)
		}
	}
	ptr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		ptr[v+1] = 1 // the vertex itself heads its segment
	}
	for _, e := range edges {
		ptr[e.U+1]++
		ptr[e.V+1]++
	}
	for v := 0; v < n; v++ {
		ptr[v+1] += ptr[v]
	}
	adj := make([]int32, ptr[n])
	fill := make([]int64, n) // dedupeTails writes each head
	for v := range fill {
		fill[v] = 1
	}
	put := func(a, b int32) {
		adj[ptr[a]+fill[a]] = b
		fill[a]++
	}
	for _, e := range edges {
		put(e.U, e.V)
		put(e.V, e.U)
	}
	return newGraph(ptr, dedupeTails(ptr, adj)), nil
}

// dedupeTails sorts each segment's neighbour tail, drops duplicates,
// and compacts, keeping every segment's head in place.
func dedupeTails(ptr []int64, adj []int32) []int32 {
	n := len(ptr) - 1
	var write int64
	for v := 0; v < n; v++ {
		seg := adj[ptr[v]+1 : ptr[v+1]]
		slices.Sort(seg)
		start := write
		adj[write] = int32(v)
		write++
		for i := range seg {
			if i > 0 && seg[i] == seg[i-1] {
				continue
			}
			adj[write] = seg[i]
			write++
		}
		ptr[v] = start
	}
	ptr[n] = write
	return adj[:write:write]
}

// newGraph wraps finished CSR arrays and builds their closed view.
func newGraph(ptr []int64, adj []int32) *Graph {
	return &Graph{n: len(ptr) - 1, ptr: ptr, adj: adj, closed: bipartite.ClosedView(ptr, adj)}
}

// ErrNotSymmetric reports a bipartite graph that cannot be interpreted
// as an undirected unipartite graph.
var ErrNotSymmetric = errors.New("graph: bipartite graph is not square and structurally symmetric")

// FromBipartite interprets a square, structurally symmetric bipartite
// graph as the adjacency structure of an undirected graph: vertex u is
// adjacent to vertex v (u != v) iff net u contains vertex v. Diagonal
// incidences (net v containing vertex v) are dropped.
func FromBipartite(b *bipartite.Graph) (*Graph, error) {
	if !b.IsStructurallySymmetric() {
		return nil, ErrNotSymmetric
	}
	n := b.NumVertices()
	ptr := make([]int64, n+1)
	for v := int32(0); int(v) < n; v++ {
		d := int64(1)
		for _, u := range b.Vtxs(v) {
			if u != v {
				d++
			}
		}
		ptr[v+1] = ptr[v] + d
	}
	adj := make([]int32, ptr[n])
	for v := int32(0); int(v) < n; v++ {
		w := ptr[v]
		adj[w] = v
		w++
		for _, u := range b.Vtxs(v) {
			if u != v {
				adj[w] = u
				w++
			}
		}
	}
	return newGraph(ptr, adj), nil
}

// Edges returns each undirected edge once (U < V), in sorted order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := int32(0); int(v) < g.n; v++ {
		for _, u := range g.Nbors(v) {
			if v < u {
				out = append(out, Edge{U: v, V: u})
			}
		}
	}
	return out
}

// D2ColorLowerBound returns 1 + max_v |nbor(v)|, the trivial lower
// bound on the number of colors of any valid distance-2 coloring (a
// vertex and all its neighbours must receive distinct colors).
func (g *Graph) D2ColorLowerBound() int {
	if g.n == 0 {
		return 0
	}
	return 1 + g.MaxDeg()
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Nbors(u)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nb) && nb[lo] == v
}
