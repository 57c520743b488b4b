package d1

import (
	"testing"
	"testing/quick"

	"bgpc/internal/core"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/rng"
)

func cycle(t testing.TB, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSequentialCycle(t *testing.T) {
	g := cycle(t, 6)
	res := Sequential(g, nil)
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 2 {
		t.Fatalf("even cycle: %d colors, want 2", res.NumColors)
	}
	odd := cycle(t, 7)
	res = Sequential(odd, nil)
	if err := Verify(odd, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 3 {
		t.Fatalf("odd cycle: %d colors, want 3", res.NumColors)
	}
}

func TestSequentialGreedyBound(t *testing.T) {
	b, err := gen.Preset("copapers", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	res := Sequential(g, nil)
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors > g.MaxDeg()+1 {
		t.Fatalf("greedy exceeded Δ+1: %d > %d", res.NumColors, g.MaxDeg()+1)
	}
}

func TestColorParallelValid(t *testing.T) {
	b, err := gen.Preset("nlpkkt", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Threads: 1, Chunk: 1},
		{Threads: 4, Chunk: 1},
		{Threads: 4, Chunk: 64, LazyQueues: true},
		{Threads: 4, Chunk: 64, LazyQueues: true, Balance: core.BalanceB1},
		{Threads: 4, Chunk: 64, LazyQueues: true, Balance: core.BalanceB2},
	} {
		res, err := Color(g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := Verify(g, res.Colors); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.NumColors > g.MaxDeg()+1 {
			t.Fatalf("%+v: %d colors > Δ+1", opts, res.NumColors)
		}
	}
}

func TestColorOneThreadMatchesSequential(t *testing.T) {
	g := cycle(t, 100)
	seq := Sequential(g, nil)
	par, err := Color(g, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Colors {
		if seq.Colors[v] != par.Colors[v] {
			t.Fatalf("vertex %d differs", v)
		}
	}
	if par.Iterations != 1 {
		t.Fatalf("iterations = %d", par.Iterations)
	}
}

func TestColorRejectsNetPhases(t *testing.T) {
	g := cycle(t, 4)
	if _, err := Color(g, Options{NetCRIters: 1}); err == nil {
		t.Fatal("net phases accepted for D1GC")
	}
	if _, err := Color(g, Options{Order: []int32{0}}); err == nil {
		t.Fatal("bad order accepted")
	}
	if _, err := Color(g, Options{Balance: core.Balance(5)}); err == nil {
		t.Fatal("bad balance accepted")
	}
}

func TestColorIsolatedAndEmpty(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Colors[2] != 0 {
		t.Fatalf("isolated vertex color = %d", res.Colors[2])
	}
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := Color(empty, Options{Threads: 2}); err != nil || res.NumColors != 0 {
		t.Fatalf("empty: %v %+v", err, res)
	}
}

func TestVerifyDetects(t *testing.T) {
	g := cycle(t, 4)
	if err := Verify(g, []int32{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, []int32{0, 0, 1, 1}); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if err := Verify(g, []int32{0, 1, 0, -1}); err == nil {
		t.Fatal("uncolored accepted")
	}
	if err := Verify(g, []int32{0, 1}); err == nil {
		t.Fatal("short slice accepted")
	}
}

func TestColorProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(50) + 2
		m := r.Intn(200)
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
		opts := Options{
			Threads:    r.Intn(4) + 1,
			Chunk:      []int{1, 64}[r.Intn(2)],
			LazyQueues: r.Intn(2) == 0,
			Balance:    core.Balance(r.Intn(3)),
		}
		res, err := Color(g, opts)
		if err != nil {
			return false
		}
		return Verify(g, res.Colors) == nil && res.NumColors <= g.MaxDeg()+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkD1Color(b *testing.B) { benchColor(b, 4) }

// BenchmarkD1ColorOneThread isolates the per-vertex cost of the runner
// from the parallel loops' dispatch.
func BenchmarkD1ColorOneThread(b *testing.B) { benchColor(b, 1) }

func benchColor(b *testing.B, threads int) {
	bg, err := gen.Preset("copapers", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromBipartite(bg)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Threads: threads, Chunk: 64, LazyQueues: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Color(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
