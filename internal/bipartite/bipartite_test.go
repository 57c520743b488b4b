package bipartite

import (
	"errors"
	"testing"
	"testing/quick"

	"bgpc/internal/rng"
)

// tiny returns the running example graph:
//
//	net 0: {0, 1, 2}
//	net 1: {2, 3}
//	net 2: {3}
//	net 3: {} (empty net)
func tiny(t *testing.T) *Graph {
	t.Helper()
	g, err := FromNetLists(4, [][]int32{{0, 1, 2}, {2, 3}, {3}, {}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDimensions(t *testing.T) {
	g := tiny(t)
	if g.NumNets() != 4 || g.NumVertices() != 4 {
		t.Fatalf("dims = (%d nets, %d vtxs)", g.NumNets(), g.NumVertices())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", g.NumEdges())
	}
}

func TestAdjacency(t *testing.T) {
	g := tiny(t)
	wantVtxs := [][]int32{{0, 1, 2}, {2, 3}, {3}, {}}
	for v := range wantVtxs {
		got := g.Vtxs(int32(v))
		if !equalInt32(got, wantVtxs[v]) {
			t.Errorf("Vtxs(%d) = %v, want %v", v, got, wantVtxs[v])
		}
		if g.NetDeg(int32(v)) != len(wantVtxs[v]) {
			t.Errorf("NetDeg(%d) = %d", v, g.NetDeg(int32(v)))
		}
	}
	wantNets := [][]int32{{0}, {0}, {0, 1}, {1, 2}}
	for u := range wantNets {
		got := g.Nets(int32(u))
		if !equalInt32(got, wantNets[u]) {
			t.Errorf("Nets(%d) = %v, want %v", u, got, wantNets[u])
		}
		if g.VtxDeg(int32(u)) != len(wantNets[u]) {
			t.Errorf("VtxDeg(%d) = %d", u, g.VtxDeg(int32(u)))
		}
	}
}

func TestFromEdgesDedup(t *testing.T) {
	g, err := FromEdges(2, 3, []Edge{
		{0, 2}, {0, 0}, {0, 2}, {0, 2}, {1, 1}, {1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges after dedup = %d, want 3", g.NumEdges())
	}
	if !equalInt32(g.Vtxs(0), []int32{0, 2}) {
		t.Fatalf("Vtxs(0) = %v", g.Vtxs(0))
	}
	if !equalInt32(g.Vtxs(1), []int32{1}) {
		t.Fatalf("Vtxs(1) = %v", g.Vtxs(1))
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	cases := []Edge{{-1, 0}, {0, -1}, {2, 0}, {0, 3}}
	for _, e := range cases {
		if _, err := FromEdges(2, 3, []Edge{e}); !errors.Is(err, ErrInvalidEdge) {
			t.Errorf("edge %+v: err = %v, want ErrInvalidEdge", e, err)
		}
	}
}

func TestFromEdgesRejectsNegativeDims(t *testing.T) {
	if _, err := FromEdges(-1, 3, nil); err == nil {
		t.Error("negative nets accepted")
	}
	if _, err := FromEdges(3, -1, nil); err == nil {
		t.Error("negative vertices accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.ColorLowerBound() != 0 {
		t.Fatalf("empty graph: edges=%d lb=%d", g.NumEdges(), g.ColorLowerBound())
	}
}

func TestStats(t *testing.T) {
	g := tiny(t)
	s := g.ComputeStats()
	if s.Rows != 4 || s.Cols != 4 || s.NNZ != 6 {
		t.Fatalf("stats dims = %+v", s)
	}
	if s.MaxNetDeg != 3 {
		t.Fatalf("MaxNetDeg = %d, want 3", s.MaxNetDeg)
	}
	if s.MaxVtxDeg != 2 {
		t.Fatalf("MaxVtxDeg = %d, want 2", s.MaxVtxDeg)
	}
	if s.AvgNetDeg != 1.5 {
		t.Fatalf("AvgNetDeg = %v, want 1.5", s.AvgNetDeg)
	}
	if s.Symmetric {
		t.Fatal("tiny graph misreported as symmetric")
	}
}

func TestColorLowerBound(t *testing.T) {
	g := tiny(t)
	if lb := g.ColorLowerBound(); lb != 3 {
		t.Fatalf("lower bound = %d, want 3", lb)
	}
}

func TestSymmetric(t *testing.T) {
	// 3-cycle incidence: symmetric pattern with self-loops absent.
	g, err := FromNetLists(3, [][]int32{{1, 2}, {0, 2}, {0, 1}}) // adjacency matrix of a triangle
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsStructurallySymmetric() {
		t.Fatal("triangle adjacency misreported as asymmetric")
	}
	g2, err := FromNetLists(3, [][]int32{{1}, {2}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if g2.IsStructurallySymmetric() {
		t.Fatal("directed cycle misreported as symmetric")
	}
	g3, err := FromNetLists(4, [][]int32{{0}, {1}, {2}}) // non-square
	if err != nil {
		t.Fatal(err)
	}
	if g3.IsStructurallySymmetric() {
		t.Fatal("non-square graph misreported as symmetric")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := tiny(t)
	edges := g.Edges()
	g2, err := FromEdges(g.NumNets(), g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("Edges() round trip changed the graph")
	}
}

func TestFromEdgesPropertyRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		numNet := r.Intn(20) + 1
		numVtx := r.Intn(20) + 1
		m := r.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Net: int32(r.Intn(numNet)), Vtx: int32(r.Intn(numVtx))}
		}
		g, err := FromEdges(numNet, numVtx, edges)
		if err != nil {
			return false
		}
		// Invariant 1: adjacency sorted and duplicate-free both ways.
		for v := int32(0); int(v) < numNet; v++ {
			if !sortedUnique(g.Vtxs(v)) {
				return false
			}
		}
		for u := int32(0); int(u) < numVtx; u++ {
			if !sortedUnique(g.Nets(u)) {
				return false
			}
		}
		// Invariant 2: both directions agree.
		var count int64
		for v := int32(0); int(v) < numNet; v++ {
			for _, u := range g.Vtxs(v) {
				if !contains(g.Nets(u), v) {
					return false
				}
				count++
			}
		}
		if count != g.NumEdges() {
			return false
		}
		// Invariant 3: rebuilding from Edges() is an identity.
		g2, err := FromEdges(numNet, numVtx, g.Edges())
		return err == nil && sameGraph(g, g2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	s := []int32{1, 3, 5, 9}
	for _, x := range s {
		if !contains(s, x) {
			t.Errorf("contains(%v, %d) = false", s, x)
		}
	}
	for _, x := range []int32{0, 2, 4, 10} {
		if contains(s, x) {
			t.Errorf("contains(%v, %d) = true", s, x)
		}
	}
	if contains(nil, 1) {
		t.Error("contains(nil, 1) = true")
	}
}

func sortedUnique(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

func sameGraph(a, b *Graph) bool {
	if a.NumNets() != b.NumNets() || a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := int32(0); int(v) < a.NumNets(); v++ {
		if !equalInt32(a.Vtxs(v), b.Vtxs(v)) {
			return false
		}
	}
	return true
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

func TestLargeRandomTransposeAgrees(t *testing.T) {
	r := rng.New(404)
	const numNet, numVtx, m = 500, 700, 20000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Net: int32(r.Intn(numNet)), Vtx: int32(r.Intn(numVtx))}
	}
	g, err := FromEdges(numNet, numVtx, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check vertex degrees computed through both directions.
	deg := make([]int, numVtx)
	for v := int32(0); v < numNet; v++ {
		for _, u := range g.Vtxs(v) {
			deg[u]++
		}
	}
	for u := int32(0); u < numVtx; u++ {
		if deg[u] != g.VtxDeg(u) {
			t.Fatalf("vertex %d: degree mismatch %d vs %d", u, deg[u], g.VtxDeg(u))
		}
	}
}

func TestDedupeCSRKeepsSegmentsIndependent(t *testing.T) {
	// Two nets with interleaved duplicates; ensure compaction does not
	// leak entries across segment boundaries.
	g, err := FromEdges(2, 4, []Edge{
		{0, 3}, {0, 3}, {0, 1}, {1, 0}, {1, 0}, {1, 2}, {1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt32(g.Vtxs(0), []int32{1, 3}) || !equalInt32(g.Vtxs(1), []int32{0, 2}) {
		t.Fatalf("Vtxs = %v / %v", g.Vtxs(0), g.Vtxs(1))
	}
}

func TestStatsStdDev(t *testing.T) {
	// Net degrees 1 and 3: mean 2, variance 1, stddev 1.
	g, err := FromNetLists(3, [][]int32{{0}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.StdDevNetDeg != 1 {
		t.Fatalf("StdDevNetDeg = %v, want 1", s.StdDevNetDeg)
	}
}

func BenchmarkFromEdges(b *testing.B) {
	r := rng.New(7)
	const numNet, numVtx, m = 2000, 2000, 100000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Net: int32(r.Intn(numNet)), Vtx: int32(r.Intn(numVtx))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(numNet, numVtx, edges); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTranspose(t *testing.T) {
	g := tiny(t)
	tr := g.Transpose()
	if tr.NumNets() != g.NumVertices() || tr.NumVertices() != g.NumNets() {
		t.Fatalf("transpose dims %dx%d", tr.NumNets(), tr.NumVertices())
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edges %d", tr.NumEdges())
	}
	// tr.Vtxs(net u) must equal g.Nets(vertex u).
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		if !equalInt32(tr.Vtxs(u), g.Nets(u)) {
			t.Fatalf("Transpose.Vtxs(%d) = %v, want %v", u, tr.Vtxs(u), g.Nets(u))
		}
	}
	// Double transpose round-trips.
	rt := tr.Transpose()
	for v := int32(0); int(v) < g.NumNets(); v++ {
		if !equalInt32(rt.Vtxs(v), g.Vtxs(v)) {
			t.Fatal("double transpose changed the graph")
		}
	}
}

func TestFingerprint(t *testing.T) {
	g1, err := FromNetLists(4, [][]int32{{0, 1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Same incidence structure, different entry order and duplicates:
	// construction sorts and dedupes, so the fingerprint must match.
	g2, err := FromEdges(2, 4, []Edge{
		{Net: 1, Vtx: 3}, {Net: 0, Vtx: 2}, {Net: 0, Vtx: 0},
		{Net: 1, Vtx: 2}, {Net: 0, Vtx: 1}, {Net: 0, Vtx: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatalf("equal graphs, fingerprints %x vs %x", g1.Fingerprint(), g2.Fingerprint())
	}
	// Any structural change must move the fingerprint.
	g3, err := FromNetLists(4, [][]int32{{0, 1, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	g4, err := FromNetLists(5, [][]int32{{0, 1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint() == g3.Fingerprint() {
		t.Fatal("different adjacency, same fingerprint")
	}
	if g1.Fingerprint() == g4.Fingerprint() {
		t.Fatal("different vertex count, same fingerprint")
	}
}
