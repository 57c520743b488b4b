package d2

import (
	"testing"
	"testing/quick"

	"bgpc/internal/core"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/order"
	"bgpc/internal/rng"
	"bgpc/internal/verify"
)

// pathGraph returns the path 0-1-2-3-4.
func pathGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func symPresets(t testing.TB, scale float64) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, name := range gen.SymmetricPresetNames() {
		b, err := gen.Preset(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromBipartite(b)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

func TestSequentialPath(t *testing.T) {
	g := pathGraph(t)
	res := Sequential(g, nil)
	if err := verify.D2GC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	// Path distance-2 coloring needs 3 colors; first-fit natural order
	// achieves it: 0,1,2,0,1.
	want := []int32{0, 1, 2, 0, 1}
	for v, c := range res.Colors {
		if c != want[v] {
			t.Fatalf("colors = %v, want %v", res.Colors, want)
		}
	}
	if res.NumColors != 3 {
		t.Fatalf("NumColors = %d", res.NumColors)
	}
}

func TestSequentialMeetsLowerBoundOnStar(t *testing.T) {
	// Star K1,k: distance-2 coloring needs k+1 colors.
	edges := make([]graph.Edge, 6)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: int32(i + 1)}
	}
	g, err := graph.FromEdges(7, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := Sequential(g, nil)
	if err := verify.D2GC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 7 {
		t.Fatalf("NumColors = %d, want 7", res.NumColors)
	}
	if res.NumColors != g.D2ColorLowerBound() {
		t.Fatalf("star should meet its lower bound")
	}
}

func TestSequentialValidOnPresets(t *testing.T) {
	for name, g := range symPresets(t, 0.04) {
		res := Sequential(g, nil)
		if err := verify.D2GC(g, res.Colors); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.NumColors < g.D2ColorLowerBound() {
			t.Fatalf("%s: %d colors below lower bound %d", name, res.NumColors, g.D2ColorLowerBound())
		}
	}
}

func TestColorAllAlgorithmsValid(t *testing.T) {
	graphs := symPresets(t, 0.04)
	graphs["path"] = pathGraph(t)
	for _, spec := range core.NamedAlgorithms() {
		for _, threads := range []int{1, 4} {
			opts := spec.Opts
			opts.Threads = threads
			for name, g := range graphs {
				res, err := Color(g, opts)
				if err != nil {
					t.Fatalf("%s/%s/t%d: %v", spec.Name, name, threads, err)
				}
				if err := verify.D2GC(g, res.Colors); err != nil {
					t.Fatalf("%s/%s/t%d: %v", spec.Name, name, threads, err)
				}
				if res.NumColors < g.D2ColorLowerBound() {
					t.Fatalf("%s/%s/t%d: %d colors < lower bound %d",
						spec.Name, name, threads, res.NumColors, g.D2ColorLowerBound())
				}
			}
		}
	}
}

func TestColorOneThreadVVMatchesSequential(t *testing.T) {
	g := symPresets(t, 0.04)["channel"]
	seq := Sequential(g, nil)
	par, err := Color(g, Options{Threads: 1, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Colors {
		if seq.Colors[v] != par.Colors[v] {
			t.Fatalf("vertex %d: %d vs %d", v, seq.Colors[v], par.Colors[v])
		}
	}
	if par.Iterations != 1 {
		t.Fatalf("iterations = %d", par.Iterations)
	}
}

func TestColorWithOrder(t *testing.T) {
	g := symPresets(t, 0.04)["copapers"]
	ord := order.Random(g.NumVertices(), 7)
	res, err := Color(g, Options{Threads: 2, Chunk: 64, LazyQueues: true, Order: ord})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.D2GC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestColorIsolatedVertices(t *testing.T) {
	// Vertices 2–5 have no neighbour. In the closed view each is its
	// own one-vertex net; it must still be pre-colored 0, including
	// under B1/B2, whose policies would otherwise pick from colmax or
	// colnext.
	g, err := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bal := range []core.Balance{core.BalanceNone, core.BalanceB1, core.BalanceB2} {
		for _, spec := range core.NamedAlgorithms() {
			opts := spec.Opts
			opts.Threads, opts.Balance = 2, bal
			res, err := Color(g, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, bal, err)
			}
			if err := verify.D2GC(g, res.Colors); err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, bal, err)
			}
			for v := 2; v < 6; v++ {
				if res.Colors[v] != 0 {
					t.Fatalf("%s/%v: isolated vertices colored %v", spec.Name, bal, res.Colors)
				}
			}
		}
	}
}

func TestColorEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestValidateRejects(t *testing.T) {
	g := pathGraph(t)
	cases := []Options{
		{NetColorIters: 3, NetCRIters: 1},
		{NetColorIters: -1},
		{Order: []int32{0}},
		{Balance: core.Balance(7)},
	}
	for i, opts := range cases {
		if _, err := Color(g, opts); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBalancingValidAndBalances(t *testing.T) {
	g := symPresets(t, 0.08)["copapers"]
	run := func(b core.Balance) verify.ColorStats {
		opts := Options{Threads: 2, Chunk: 64, LazyQueues: true, NetCRIters: 2, Balance: b}
		res, err := Color(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.D2GC(g, res.Colors); err != nil {
			t.Fatalf("balance %v: %v", b, err)
		}
		return verify.Stats(res.Colors)
	}
	u := run(core.BalanceNone)
	b2 := run(core.BalanceB2)
	t.Logf("stddev U=%.2f B2=%.2f colors U=%d B2=%d", u.StdDev, b2.StdDev, u.NumColors, b2.NumColors)
	if b2.StdDev >= u.StdDev {
		t.Fatalf("B2 stddev %.2f ≥ unbalanced %.2f", b2.StdDev, u.StdDev)
	}
}

func TestColorPropertyRandomGraphs(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(40) + 2
		m := r.Intn(150)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		netCR := r.Intn(3)
		opts := Options{
			Threads:       r.Intn(4) + 1,
			Chunk:         []int{1, 64}[r.Intn(2)],
			LazyQueues:    r.Intn(2) == 0,
			NetCRIters:    netCR,
			NetColorIters: r.Intn(netCR + 1),
			Balance:       core.Balance(r.Intn(3)),
		}
		res, err := Color(g, opts)
		if err != nil {
			return false
		}
		return verify.D2GC(g, res.Colors) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkD2N1N2Channel(b *testing.B) {
	bg, err := gen.Preset("channel", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromBipartite(bg)
	if err != nil {
		b.Fatal(err)
	}
	opts, _ := core.ParseAlgorithm("N1-N2")
	opts.Threads = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Color(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestD2EquivalentToBGPCWithFullDiagonal: for a square symmetric
// matrix whose diagonal is fully populated, the BGPC conflict relation
// on columns coincides exactly with the distance-2 relation on the
// matrix graph (sharing net u means distance ≤ 1 to u or distance 2
// through u). Sequential first-fit in natural order must therefore
// produce identical colorings — a strong cross-validation between the
// two independent implementations.
func TestD2EquivalentToBGPCWithFullDiagonal(t *testing.T) {
	for _, name := range []string{"afshell", "bone010", "copapers"} {
		b, err := gen.Preset(name, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		// Verify the diagonal is fully populated (our symmetric presets
		// built with includeSelf/diagonal satisfy this).
		for v := int32(0); int(v) < b.NumNets(); v++ {
			found := false
			for _, u := range b.Vtxs(v) {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				t.Skipf("%s: diagonal entry %d missing; equivalence needs a full diagonal", name, v)
			}
		}
		g, err := graph.FromBipartite(b)
		if err != nil {
			t.Fatal(err)
		}
		bgpcRes := core.Sequential(b, nil)
		d2Res := Sequential(g, nil)
		for v := range bgpcRes.Colors {
			if bgpcRes.Colors[v] != d2Res.Colors[v] {
				t.Fatalf("%s: vertex %d: BGPC %d vs D2GC %d", name, v, bgpcRes.Colors[v], d2Res.Colors[v])
			}
		}
	}
}
