package dist

import (
	"testing"
	"testing/quick"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/rng"
	"bgpc/internal/verify"
)

func TestColorBGPCValidAcrossRankCounts(t *testing.T) {
	for _, name := range []string{"copapers", "nlpkkt", "movielens"} {
		g, err := gen.Preset(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 2, 3, 8} {
			colors, stats, err := ColorBGPC(g, ranks, 0)
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", name, ranks, err)
			}
			if err := verify.BGPC(g, colors); err != nil {
				t.Fatalf("%s ranks=%d: %v", name, ranks, err)
			}
			if stats.Supersteps < 1 {
				t.Fatalf("%s ranks=%d: %d supersteps", name, ranks, stats.Supersteps)
			}
			if ranks == 1 && stats.Messages != 0 {
				t.Fatalf("%s: single rank sent %d messages", name, stats.Messages)
			}
			if ranks > 1 && stats.Messages == 0 {
				t.Fatalf("%s ranks=%d: no boundary communication on a connected instance", name, ranks)
			}
		}
	}
}

func TestColorBGPCDeterministic(t *testing.T) {
	// BSP semantics make the result independent of goroutine
	// scheduling: repeated runs with the same rank count must agree
	// exactly.
	g, err := gen.Preset("copapers", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a, sa, err := ColorBGPC(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := ColorBGPC(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if a[u] != b[u] {
			t.Fatalf("vertex %d: %d vs %d across runs", u, a[u], b[u])
		}
	}
	if sa.Supersteps != sb.Supersteps || sa.Messages != sb.Messages || sa.Values != sb.Values {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
}

func TestColorBGPCSingleRankMatchesSequentialQuality(t *testing.T) {
	// One rank = sequential greedy in natural order: exactly one
	// superstep, no messages.
	g, err := gen.Preset("channel", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	colors, stats, err := ColorBGPC(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g, colors); err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 1 {
		t.Fatalf("supersteps = %d, want 1", stats.Supersteps)
	}
}

func TestColorBGPCEmptyAndIsolated(t *testing.T) {
	g0, err := bipartite.FromEdges(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	colors, _, err := ColorBGPC(g0, 4, 0)
	if err != nil || len(colors) != 0 {
		t.Fatalf("empty: %v %v", colors, err)
	}
	g1, err := bipartite.FromNetLists(4, [][]int32{{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	colors, _, err = ColorBGPC(g1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g1, colors); err != nil {
		t.Fatal(err)
	}
	if colors[0] != 0 || colors[2] != 0 {
		t.Fatalf("isolated columns colored %v", colors)
	}
}

func TestColorBGPCCommunicationScalesWithRanks(t *testing.T) {
	g, err := gen.Preset("copapers", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := ColorBGPC(g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, s8, err := ColorBGPC(g, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s8.Values <= s2.Values {
		t.Fatalf("boundary volume did not grow with ranks: %d (2 ranks) vs %d (8 ranks)", s2.Values, s8.Values)
	}
}

func TestColorBGPCProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		numNet := r.Intn(15) + 1
		numVtx := r.Intn(30) + 1
		m := r.Intn(120)
		edges := make([]bipartite.Edge, m)
		for i := range edges {
			edges[i] = bipartite.Edge{Net: int32(r.Intn(numNet)), Vtx: int32(r.Intn(numVtx))}
		}
		g, err := bipartite.FromEdges(numNet, numVtx, edges)
		if err != nil {
			return false
		}
		ranks := r.Intn(6) + 1
		colors, _, err := ColorBGPC(g, ranks, 0)
		if err != nil {
			return false
		}
		return verify.BGPC(g, colors) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	b := newBarrier(3)
	const rounds = 50
	counts := make([]int, 3)
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		go func(r int) {
			for i := 0; i < rounds; i++ {
				counts[r]++
				b.wait()
				// After the barrier, all parties have finished round i.
				for j := 0; j < 3; j++ {
					if counts[j] < i+1 {
						panic("barrier leak")
					}
				}
				b.wait()
			}
			done <- struct{}{}
		}(r)
	}
	for r := 0; r < 3; r++ {
		<-done
	}
}

func BenchmarkDistBGPC(b *testing.B) {
	g, err := gen.Preset("copapers", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	for _, ranks := range []int{2, 8} {
		b.Run(map[int]string{2: "ranks=2", 8: "ranks=8"}[ranks], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ColorBGPC(g, ranks, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestColorD2GCValid(t *testing.T) {
	b, err := gen.Preset("channel", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 4} {
		colors, stats, err := ColorD2GC(g, ranks, 0)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if err := verify.D2GC(g, colors); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if ranks == 1 && stats.Supersteps != 1 {
			t.Fatalf("single rank: %d supersteps", stats.Supersteps)
		}
	}
}
