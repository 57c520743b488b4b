package graph

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"bgpc/internal/bipartite"
	"bgpc/internal/rng"
)

// path returns the path graph 0-1-2-3.
func path(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBasics(t *testing.T) {
	g := path(t)
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("dims: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.MaxDeg() != 2 {
		t.Fatalf("MaxDeg = %d", g.MaxDeg())
	}
	want := [][]int32{{1}, {0, 2}, {1, 3}, {2}}
	for v := range want {
		if !equalInt32(g.Nbors(int32(v)), want[v]) {
			t.Errorf("Nbors(%d) = %v, want %v", v, g.Nbors(int32(v)), want[v])
		}
	}
}

func TestOwnNet(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent first calls (runners on one shared graph) must all get
	// the one view.
	views := make([]*bipartite.Graph, 4)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = g.OwnNet()
		}(i)
	}
	wg.Wait()
	b := g.OwnNet()
	for i, v := range views {
		if v != b {
			t.Fatalf("call %d got a different view", i)
		}
	}
	if b.NumVertices() != 5 || b.NumNets() != 5 {
		t.Fatalf("dims: %d vertices, %d nets", b.NumVertices(), b.NumNets())
	}
	for v := int32(0); v < 5; v++ {
		want := []int32{v}
		if v == 4 { // isolated: in no net, so the runners pre-color it
			want = []int32{}
		}
		if !equalInt32(b.Nets(v), want) {
			t.Errorf("Nets(%d) = %v, want %v", v, b.Nets(v), want)
		}
		if vt := b.Vtxs(v); vt[0] != v || !equalInt32(vt[1:], g.Nbors(v)) {
			t.Errorf("Vtxs(%d) = %v, want %d then %v", v, vt, v, g.Nbors(v))
		}
	}
	if lb := b.ColorLowerBound(); lb != g.D2ColorLowerBound() {
		t.Fatalf("ColorLowerBound = %d, want D2ColorLowerBound = %d", lb, g.D2ColorLowerBound())
	}
}

func TestFromEdgesDedupAndBothDirections(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("adjacency missing a direction")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge (0,2)")
	}
}

func TestFromEdgesRejects(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{0, 0}}); !errors.Is(err, ErrInvalidEdge) {
		t.Errorf("self-loop: err = %v", err)
	}
	if _, err := FromEdges(3, []Edge{{0, 3}}); !errors.Is(err, ErrInvalidEdge) {
		t.Errorf("out of range: err = %v", err)
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
}

func TestD2ColorLowerBound(t *testing.T) {
	g := path(t)
	if lb := g.D2ColorLowerBound(); lb != 3 {
		t.Fatalf("D2 lower bound = %d, want 3", lb)
	}
	empty, _ := FromEdges(0, nil)
	if lb := empty.D2ColorLowerBound(); lb != 0 {
		t.Fatalf("empty D2 lower bound = %d", lb)
	}
}

func TestFromBipartiteTriangle(t *testing.T) {
	// Adjacency matrix (with diagonal) of a triangle.
	b, err := bipartite.FromNetLists(3, [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (diagonal dropped)", g.NumEdges())
	}
	for v := int32(0); v < 3; v++ {
		if g.HasEdge(v, v) {
			t.Fatal("self-loop survived")
		}
	}
}

func TestFromBipartiteRejectsAsymmetric(t *testing.T) {
	b, err := bipartite.FromNetLists(2, [][]int32{{1}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromBipartite(b); !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("err = %v, want ErrNotSymmetric", err)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := path(t)
	edges := g.Edges()
	g2, err := FromEdges(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed edge count")
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if !equalInt32(g.Nbors(v), g2.Nbors(v)) {
			t.Fatalf("round trip changed Nbors(%d)", v)
		}
	}
}

func TestPropertySymmetryInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(30) + 2
		m := r.Intn(120)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				edges = append(edges, Edge{u, v})
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		var half int64
		for v := int32(0); int(v) < n; v++ {
			prev := int32(-1)
			for _, u := range g.Nbors(v) {
				if u <= prev || u == v || !g.HasEdge(u, v) {
					return false
				}
				prev = u
				half++
			}
		}
		return half == 2*g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
