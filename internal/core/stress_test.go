package core

import (
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/rng"
	"bgpc/internal/verify"
)

// TestSharedAndLazyQueuesEquivalentSingleThread: with one thread the
// conflict sets are deterministic, so the shared and lazy queue
// variants must produce identical colorings.
func TestSharedAndLazyQueuesEquivalentSingleThread(t *testing.T) {
	g, err := gen.Preset("copapers", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Color(g, Options{Threads: 1, Chunk: 64, LazyQueues: false, NetColorIters: 1, NetCRIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Color(g, Options{Threads: 1, Chunk: 64, LazyQueues: true, NetColorIters: 1, NetCRIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Colors {
		if a.Colors[u] != b.Colors[u] {
			t.Fatalf("vertex %d: shared %d vs lazy %d", u, a.Colors[u], b.Colors[u])
		}
	}
}

// TestChunkSizeDoesNotChangeSingleThreadResult: scheduling must be a
// pure performance knob when there is no concurrency.
func TestChunkSizeDoesNotChangeSingleThreadResult(t *testing.T) {
	g, err := gen.Preset("nlpkkt", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Color(g, Options{Threads: 1, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{2, 64, 100000} {
		got, err := Color(g, Options{Threads: 1, Chunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		for u := range ref.Colors {
			if ref.Colors[u] != got.Colors[u] {
				t.Fatalf("chunk %d changed vertex %d", chunk, u)
			}
		}
	}
}

// TestManyThreadsStress drives far more workers than cores through all
// named algorithms on a contended graph; validity must hold under any
// interleaving.
func TestManyThreadsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g, err := gen.Preset("movielens", 0.08)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range NamedAlgorithms() {
		opts := spec.Opts
		opts.Threads = 32
		for rep := 0; rep < 3; rep++ {
			res, err := Color(g, opts)
			if err != nil {
				t.Fatalf("%s rep %d: %v", spec.Name, rep, err)
			}
			if err := verify.BGPC(g, res.Colors); err != nil {
				t.Fatalf("%s rep %d: %v", spec.Name, rep, err)
			}
		}
	}
}

// TestBalancedVariantsAllAlgorithms: B1/B2 must preserve validity on
// every schedule, including the net-based coloring phases.
func TestBalancedVariantsAllAlgorithms(t *testing.T) {
	g, err := gen.Preset("hv15r", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range NamedAlgorithms() {
		for _, b := range []Balance{BalanceB1, BalanceB2} {
			opts := spec.Opts
			opts.Threads = 4
			opts.Balance = b
			res, err := Color(g, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, b, err)
			}
			if err := verify.BGPC(g, res.Colors); err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, b, err)
			}
		}
	}
}

// TestWorkModelMonotoneInThreads: with more modeled threads the
// critical path must not grow (greedy least-loaded assignment).
func TestWorkModelMonotoneInThreads(t *testing.T) {
	g, err := gen.Preset("channel", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(1 << 62)
	for _, threads := range []int{1, 2, 4, 8} {
		res, err := Color(g, Options{Threads: threads, Chunk: 16, LazyQueues: true})
		if err != nil {
			t.Fatal(err)
		}
		// Allow the dispatch-contention term to offset the balance gain
		// slightly; the critical path must still shrink substantially
		// from 1 to 8 threads.
		if threads == 1 {
			prev = res.CriticalWork
			continue
		}
		if res.CriticalWork > prev {
			t.Logf("threads=%d: critical %d > previous %d (contention term)", threads, res.CriticalWork, prev)
		}
		prev = res.CriticalWork
	}
	one, _ := Color(g, Options{Threads: 1, Chunk: 16, LazyQueues: true})
	eight, _ := Color(g, Options{Threads: 8, Chunk: 16, LazyQueues: true})
	if eight.CriticalWork*4 > one.CriticalWork {
		t.Fatalf("8-thread critical path %d not ≥4x below 1-thread %d", eight.CriticalWork, one.CriticalWork)
	}
}

// TestMetamorphicVertexRelabeling: greedy first-fit coloring depends
// only on the color *sets* seen through each net, never on vertex or
// net identities. Relabeling both sides of the bipartite graph and
// visiting vertices in the corresponding order must therefore
// reproduce the original coloring exactly, vertex for vertex — and
// every parallel schedule must stay valid on the relabeled graph.
func TestMetamorphicVertexRelabeling(t *testing.T) {
	g, err := gen.Preset("copapers", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	n, m := g.NumVertices(), g.NumNets()
	ref := Sequential(g, nil)

	for _, seed := range []uint64{1, 42, 0xBADC0FFEE} {
		r := rng.New(seed)
		permV := r.Perm(n) // original vertex u becomes permV[u]
		permN := r.Perm(m) // original net v becomes permN[v]

		edges := g.Edges()
		relabeled := make([]bipartite.Edge, len(edges))
		for i, e := range edges {
			relabeled[i] = bipartite.Edge{Net: permN[e.Net], Vtx: permV[e.Vtx]}
		}
		pg, err := bipartite.FromEdges(m, n, relabeled)
		if err != nil {
			t.Fatal(err)
		}

		// Visit pg's vertices in the image of the natural order on g.
		order := make([]int32, n)
		for u := 0; u < n; u++ {
			order[u] = permV[u]
		}
		got := Sequential(pg, order)
		if got.NumColors != ref.NumColors {
			t.Fatalf("seed %d: relabeling changed color count %d -> %d", seed, ref.NumColors, got.NumColors)
		}
		for u := 0; u < n; u++ {
			if got.Colors[permV[u]] != ref.Colors[u] {
				t.Fatalf("seed %d: vertex %d (relabeled %d): color %d, want %d",
					seed, u, permV[u], got.Colors[permV[u]], ref.Colors[u])
			}
		}

		// Parallel schedules give no per-vertex guarantee, but every one
		// of them must still produce a valid partial coloring.
		for _, spec := range NamedAlgorithms() {
			opts := spec.Opts
			opts.Threads = 4
			res, err := Color(pg, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, spec.Name, err)
			}
			if err := verify.BGPC(pg, res.Colors); err != nil {
				t.Fatalf("seed %d %s on relabeled graph: %v", seed, spec.Name, err)
			}
		}
	}
}

// TestSequentialWorkMatchesVV1: the sequential baseline and the
// 1-thread V-V perform the same adjacency traversals during coloring;
// V-V additionally pays the conflict-detection scan and scheduling
// charges, so its total work must be strictly larger but within 3x.
func TestSequentialWorkMatchesVV1(t *testing.T) {
	g, err := gen.Preset("bone010", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	seq := Sequential(g, nil)
	vv, err := Color(g, Options{Threads: 1, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vv.TotalWork <= seq.TotalWork {
		t.Fatalf("V-V work %d not above sequential %d", vv.TotalWork, seq.TotalWork)
	}
	if vv.TotalWork > 3*seq.TotalWork {
		t.Fatalf("V-V work %d implausibly high vs sequential %d", vv.TotalWork, seq.TotalWork)
	}
}
