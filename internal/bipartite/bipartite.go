// Package bipartite provides the compressed sparse bipartite-graph
// representation the coloring algorithms run on.
//
// Terminology follows the paper's hypergraph analogy: the vertices of
// VA (matrix columns) are "vertices" — the side that gets colored — and
// the vertices of VB (matrix rows) are "nets", which define the
// conflict neighbourhood: two vertices conflict iff they share a net.
//
// The graph stores both adjacency directions in CSR form: nets→vertices
// (vtxs, used by net-based algorithms and as the conflict oracle) and
// vertices→nets (nets, used by vertex-based algorithms). Adjacency
// lists are sorted and duplicate-free, which makes traversal order and
// therefore sequential colorings deterministic. The exceptions are
// the views of an undirected graph the D2GC and D1GC kernels color
// through (ClosedView, OwnNetView).
package bipartite

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// Graph is an immutable bipartite graph in dual CSR form.
type Graph struct {
	numVtx int // |VA|: vertices to color (matrix columns)
	numNet int // |VB|: nets (matrix rows)

	netPtr []int64 // len numNet+1
	netAdj []int32 // vertices of each net, sorted within a net
	vtxPtr []int64 // len numVtx+1
	vtxAdj []int32 // nets of each vertex, sorted within a vertex
	vtxOff int64   // entries skipped at the head of each vertex segment (ClosedView: 1)
	// unsorted marks the views whose nets are not in ascending order.
	unsorted bool
}

// Edge is one (net, vertex) incidence, i.e. one nonzero of the
// underlying matrix at (row=Net, col=Vtx).
type Edge struct {
	Net int32
	Vtx int32
}

// NumVertices returns |VA|, the number of colorable vertices (columns).
func (g *Graph) NumVertices() int { return g.numVtx }

// NumNets returns |VB|, the number of nets (rows).
func (g *Graph) NumNets() int { return g.numNet }

// NumEdges returns the number of incidences (matrix nonzeros).
func (g *Graph) NumEdges() int64 { return int64(len(g.netAdj)) }

// Vtxs returns the sorted vertex list of net v (vtxs(v) in the paper).
// The slice aliases internal storage and must not be modified.
func (g *Graph) Vtxs(v int32) []int32 { return g.netAdj[g.netPtr[v]:g.netPtr[v+1]] }

// SortedNets reports whether every vtxs(v) is in ascending order. It
// holds for every graph this package builds except ClosedView and
// OwnNetView, whose nets list their own vertex first.
func (g *Graph) SortedNets() bool { return !g.unsorted }

// Nets returns the sorted net list of vertex u (nets(u) in the paper).
// The slice aliases internal storage and must not be modified.
func (g *Graph) Nets(u int32) []int32 { return g.vtxAdj[g.vtxPtr[u]+g.vtxOff : g.vtxPtr[u+1]] }

// NetDeg returns |vtxs(v)|.
func (g *Graph) NetDeg(v int32) int { return int(g.netPtr[v+1] - g.netPtr[v]) }

// VtxDeg returns |nets(u)|.
func (g *Graph) VtxDeg(u int32) int { return int(g.vtxPtr[u+1] - g.vtxPtr[u] - g.vtxOff) }

// ClosedView returns the bipartite form of an undirected graph given
// as CSR segments [v, nbor(v)…], with the vertex heading its closed
// neighbourhood N[v]. Net v is the whole segment, vtxs(v) = N[v], as
// in the net-based D2GC of the paper's Section IV; vertex v's nets are
// the segment's tail, nets(v) = nbor(v). That suffices because every
// neighbour u heads its own net N[u], so the nets of v still cover
// nbor(v) and every vertex at distance two, and BGPC on the view is
// D2GC. Leaving net v out of nets(v) spares the vertex phases a second
// read of every neighbour's color, and it makes an isolated vertex one
// in no net, which the runners pre-color 0 as for any BGPC input. Both
// CSR directions alias ptr and adj, which must not be modified
// afterwards.
//
// The view breaks this package's rules on purpose and is for the
// coloring kernels only: each net lists its own vertex first, not in
// sorted order (the D2GC phases keep v itself on a duplicate color
// and reverse-fit from v), and the two directions are not transposes
// of each other (vertex v is in net v, net v is not among v's nets).
// IsStructurallySymmetric, ComputeStats, Fingerprint, Edges and
// Transpose do not describe the underlying graph on it.
func ClosedView(ptr []int64, adj []int32) *Graph {
	n := len(ptr) - 1
	return &Graph{numVtx: n, numNet: n, netPtr: ptr, netAdj: adj, vtxPtr: ptr, vtxAdj: adj, vtxOff: 1, unsorted: true}
}

// OwnNetView returns the distance-1 form of an undirected graph given
// as the same CSR segments [v, nbor(v)…] as ClosedView. Net v is again
// the whole segment, vtxs(v) = N[v], but every vertex is in one net
// only, its own: nets(v) = {v}, or none for an isolated vertex, which
// the runners therefore pre-color 0. The vertex phases skip the vertex
// itself while scanning its nets, so on this view they read exactly
// nbor(v): the coloring phase forbids the neighbours' colors and
// conflict detection checks each edge with the smaller-id tie-break,
// which is speculative D1GC. The net direction aliases ptr and adj,
// which must not be modified afterwards; the vertex direction is new,
// about 12 bytes per vertex.
//
// The view is for the vertex phases only. A net holds a vertex and all
// its neighbours, so the net-based phases, Repair and verify.BGPC
// would enforce distance 2 on it. It shares ClosedView's other
// departures from this package's rules (unsorted nets, directions that
// are not transposes), with the same consequences.
func OwnNetView(ptr []int64, adj []int32) *Graph {
	n := len(ptr) - 1
	vtxPtr := make([]int64, n+1)
	vtxAdj := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if ptr[v+1]-ptr[v] > 1 {
			vtxAdj = append(vtxAdj, int32(v))
		}
		vtxPtr[v+1] = int64(len(vtxAdj))
	}
	return &Graph{numVtx: n, numNet: n, netPtr: ptr, netAdj: adj, vtxPtr: vtxPtr, vtxAdj: vtxAdj, unsorted: true}
}

// ErrInvalidEdge reports an incidence outside the declared dimensions.
var ErrInvalidEdge = errors.New("bipartite: edge endpoint out of range")

// FromEdges builds a Graph with numNet nets and numVtx vertices from an
// incidence list. Duplicate incidences are merged. The input slice is
// not modified.
func FromEdges(numNet, numVtx int, edges []Edge) (*Graph, error) {
	if numNet < 0 || numVtx < 0 {
		return nil, fmt.Errorf("bipartite: negative dimension (%d nets, %d vertices)", numNet, numVtx)
	}
	for _, e := range edges {
		if e.Net < 0 || int(e.Net) >= numNet || e.Vtx < 0 || int(e.Vtx) >= numVtx {
			return nil, fmt.Errorf("%w: (net=%d, vtx=%d) with %d nets, %d vertices",
				ErrInvalidEdge, e.Net, e.Vtx, numNet, numVtx)
		}
	}
	g := &Graph{numVtx: numVtx, numNet: numNet}

	// Counting sort incidences into the net-major CSR.
	g.netPtr = make([]int64, numNet+1)
	for _, e := range edges {
		g.netPtr[e.Net+1]++
	}
	for v := 0; v < numNet; v++ {
		g.netPtr[v+1] += g.netPtr[v]
	}
	adj := make([]int32, len(edges))
	fill := make([]int64, numNet)
	for _, e := range edges {
		p := g.netPtr[e.Net] + fill[e.Net]
		adj[p] = e.Vtx
		fill[e.Net]++
	}
	// Sort within each net and drop duplicates, compacting in place.
	g.netAdj = dedupeCSR(g.netPtr, adj)
	g.buildTranspose()
	return g, nil
}

// FromNetLists builds a Graph directly from per-net vertex lists.
// Lists may be unsorted and contain duplicates; they are not modified.
func FromNetLists(numVtx int, nets [][]int32) (*Graph, error) {
	var edges []Edge
	for v, list := range nets {
		for _, u := range list {
			edges = append(edges, Edge{Net: int32(v), Vtx: u})
		}
	}
	return FromEdges(len(nets), numVtx, edges)
}

// dedupeCSR sorts each CSR segment, removes duplicates, rewrites ptr to
// the compacted offsets, and returns the compacted adjacency array.
func dedupeCSR(ptr []int64, adj []int32) []int32 {
	n := len(ptr) - 1
	var write int64
	for v := 0; v < n; v++ {
		lo, hi := ptr[v], ptr[v+1]
		seg := adj[lo:hi]
		slices.Sort(seg)
		start := write
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

// buildTranspose derives the vertex-major CSR from the net-major CSR.
func (g *Graph) buildTranspose() {
	g.vtxPtr = make([]int64, g.numVtx+1)
	for _, u := range g.netAdj {
		g.vtxPtr[u+1]++
	}
	for u := 0; u < g.numVtx; u++ {
		g.vtxPtr[u+1] += g.vtxPtr[u]
	}
	g.vtxAdj = make([]int32, len(g.netAdj))
	fill := make([]int64, g.numVtx)
	for v := int32(0); int(v) < g.numNet; v++ {
		for _, u := range g.Vtxs(v) {
			p := g.vtxPtr[u] + fill[u]
			g.vtxAdj[p] = v
			fill[u]++
		}
	}
	// Nets were visited in increasing order, so each vertex's net list
	// is already sorted and duplicate-free.
}

// Stats summarizes the structural properties reported in the paper's
// Table II.
type Stats struct {
	Rows int   // nets
	Cols int   // vertices
	NNZ  int64 // incidences

	MaxNetDeg    int     // max |vtxs(v)| — the "column degree" lower bound on colors
	AvgNetDeg    float64 // mean |vtxs(v)|
	StdDevNetDeg float64 // std-dev of |vtxs(v)|
	MaxVtxDeg    int     // max |nets(u)|
	Symmetric    bool    // square with pattern-symmetric incidence
}

// ComputeStats returns the Table II-style summary for g.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Rows: g.numNet, Cols: g.numVtx, NNZ: g.NumEdges()}
	var sum, sumSq float64
	for v := int32(0); int(v) < g.numNet; v++ {
		d := g.NetDeg(v)
		if d > s.MaxNetDeg {
			s.MaxNetDeg = d
		}
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	for u := int32(0); int(u) < g.numVtx; u++ {
		if d := g.VtxDeg(u); d > s.MaxVtxDeg {
			s.MaxVtxDeg = d
		}
	}
	if g.numNet > 0 {
		n := float64(g.numNet)
		s.AvgNetDeg = sum / n
		variance := sumSq/n - s.AvgNetDeg*s.AvgNetDeg
		if variance > 0 {
			s.StdDevNetDeg = math.Sqrt(variance)
		}
	}
	s.Symmetric = g.IsStructurallySymmetric()
	return s
}

// IsStructurallySymmetric reports whether the graph is square and its
// incidence pattern is symmetric: net i contains vertex j iff net j
// contains vertex i. D2GC experiments require this property.
func (g *Graph) IsStructurallySymmetric() bool {
	if g.numNet != g.numVtx {
		return false
	}
	for v := int32(0); int(v) < g.numNet; v++ {
		for _, u := range g.Vtxs(v) {
			if !contains(g.Vtxs(u), v) {
				return false
			}
		}
	}
	return true
}

func contains(sorted []int32, x int32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// ColorLowerBound returns max_v |vtxs(v)|, the trivial lower bound on
// the number of colors any valid BGPC coloring needs (all vertices of a
// net must use distinct colors).
func (g *Graph) ColorLowerBound() int {
	lb := 0
	for v := int32(0); int(v) < g.numNet; v++ {
		if d := g.NetDeg(v); d > lb {
			lb = d
		}
	}
	return lb
}

// Edges returns all incidences in net-major order. Intended for I/O and
// tests, not hot paths.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.netAdj))
	for v := int32(0); int(v) < g.numNet; v++ {
		for _, u := range g.Vtxs(v) {
			out = append(out, Edge{Net: v, Vtx: u})
		}
	}
	return out
}

// Fingerprint returns a 64-bit FNV-1a content hash over the graph's
// dimensions and net-major CSR arrays. Because construction sorts and
// deduplicates adjacency, two graphs built from the same incidence set
// — whatever the input order or duplication — fingerprint identically,
// which makes it a usable identity for content-addressed caches (see
// internal/service). It is not cryptographic.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(int64(g.numNet))
	put(int64(g.numVtx))
	for _, p := range g.netPtr {
		put(p)
	}
	for _, u := range g.netAdj {
		put(int64(u))
	}
	return h.Sum64()
}

// Transpose returns the graph with roles swapped: former nets become
// vertices and vice versa (the matrix transpose). It shares no state
// cheaply by reusing the existing CSR arrays, so it is O(1).
func (g *Graph) Transpose() *Graph {
	return &Graph{
		numVtx: g.numNet,
		numNet: g.numVtx,
		netPtr: g.vtxPtr,
		netAdj: g.vtxAdj,
		vtxPtr: g.netPtr,
		vtxAdj: g.netAdj,
		// A view's vertex direction is no better ordered than its nets.
		unsorted: g.unsorted,
	}
}
