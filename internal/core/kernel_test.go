package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/par"
	"bgpc/internal/rng"
	"bgpc/internal/verify"
)

// kernelPresets are the presets perfbench's batch-kernel workload
// colors: two skewed (copapers, movielens) and two regular (channel,
// nlpkkt).
var kernelPresets = []string{"copapers", "movielens", "channel", "nlpkkt"}

// kernelAlgos are the kernels batch-kernel runs on each preset ("seq"
// is Sequential).
var kernelAlgos = []string{"seq", "N1-N2", "V-V-64D"}

// runKernel colors g once with Sequential (algo "seq") or the named
// parallel schedule.
func runKernel(tb testing.TB, g *bipartite.Graph, algo string, threads int) *Result {
	tb.Helper()
	if algo == "seq" {
		return Sequential(g, nil)
	}
	opts, err := ParseAlgorithm(algo)
	if err != nil {
		tb.Fatal(err)
	}
	opts.Threads = threads
	res, err := Color(g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// earlyStopGraphs are the inputs of the early-stop differentials: the
// four batch-kernel presets at scale 0.05, Zipf and RMAT seeds, and
// copapers' closed and own-net views, whose nets are not sorted.
func earlyStopGraphs(tb testing.TB) map[string]*bipartite.Graph {
	gs := smallPresets(tb)
	for seed := uint64(1); seed <= 3; seed++ {
		gs[fmt.Sprintf("zipf/%d", seed)] = gen.ZipfBipartite(60, 300, 2, 40, 1.1, 0.9, seed)
		gs[fmt.Sprintf("rmat/%d", seed)] = gen.RMAT(8, 4, 0.57, 0.19, 0.19, false, seed)
	}
	ug, err := graph.FromBipartite(gs["copapers"])
	if err != nil {
		tb.Fatal(err)
	}
	gs["copapers/closed"], gs["copapers/ownnet"] = ug.Closed(), ug.OwnNet()
	return gs
}

// identityOrder is the natural order given explicitly, which switches
// the early stops off.
func identityOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// TestSequentialEarlyStopExact checks natural-order Sequential, which
// stops each net's scan at the vertex being colored when nets are
// sorted, against the identity order, which always scans in full:
// colors and work must be identical. The views' nets list their own
// vertex first, so a view that took the early stop would skip colored
// neighbours and fail here.
func TestSequentialEarlyStopExact(t *testing.T) {
	for name, g := range earlyStopGraphs(t) {
		early, full := Sequential(g, nil), Sequential(g, identityOrder(g.NumVertices()))
		if !slices.Equal(early.Colors, full.Colors) {
			t.Errorf("%s: natural order colors differ from the full scan", name)
		}
		if early.TotalWork != full.TotalWork {
			t.Errorf("%s: TotalWork %d with early stop, %d with the full scan", name, early.TotalWork, full.TotalWork)
		}
	}
}

// TestFirstIterationFrontierExact checks the dispatch frontier of the
// first vertex coloring phase. At threads = 1 the running chunk is
// always the furthest handed out, so each scan stops at the vertex
// being colored, as natural-order Sequential's does. V-V, V-V-64 and
// V-V-64D under first fit must then color exactly as Sequential, in
// one iteration. Under every policy, with the masks on and off, they
// must color and charge exactly as the identity order, which scans in
// full. A cancelable context makes the one-thread loop hand its chunks
// out one by one. At threads = 4 every coloring of a graph with sorted
// nets must be valid.
func TestFirstIterationFrontierExact(t *testing.T) {
	chunked, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, g := range earlyStopGraphs(t) {
		seq := Sequential(g, nil).Colors
		identity := identityOrder(g.NumVertices())
		for _, algo := range []string{"V-V", "V-V-64", "V-V-64D"} {
			for _, b := range []Balance{BalanceNone, BalanceB1, BalanceB2} {
				for _, masks := range []bool{true, false} {
					key := fmt.Sprintf("%s/%s-%s/masks=%v", name, algo, b, masks)
					opts, err := ParseAlgorithm(algo)
					if err != nil {
						t.Fatal(err)
					}
					opts.Balance = b
					run := func(ctx context.Context, threads int, order []int32) *Result {
						opts.Threads, opts.Order = threads, order
						res, err := colorCtx(ctx, g, opts, masks)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					for _, ctx := range []context.Context{context.Background(), chunked} {
						got := run(ctx, 1, nil)
						if err := sameRun(got, run(ctx, 1, identity)); err != nil {
							t.Errorf("%s: against the full scan: %v", key, err)
						}
						if got.Iterations != 1 {
							t.Errorf("%s: %d iterations at one thread, want 1", key, got.Iterations)
						}
						if b == BalanceNone && !slices.Equal(got.Colors, seq) {
							t.Errorf("%s: colors differ from natural-order Sequential", key)
						}
					}
					if !g.SortedNets() {
						continue // a view scans in full; its own-net form is a distance-1 coloring
					}
					if err := verify.BGPC(g, run(context.Background(), 4, nil).Colors); err != nil {
						t.Errorf("%s at 4 threads: %v", key, err)
					}
				}
			}
		}
	}
}

// TestWorkModelPinned pins the deterministic work model behind the
// paper's speedup tables, TotalWork and CriticalWork at threads = 1, so
// a kernel speed change that moves the model fails here rather than in
// review. The values were recorded from full scans: the early stops
// must charge the same units. V-V-64 and V-N2 join the batch-kernel
// algorithms because the first iteration's frontier stop reaches every
// vertex-first schedule.
func TestWorkModelPinned(t *testing.T) {
	want := map[string][2]int64{
		"copapers/seq":      {477150, 477150},
		"copapers/N1-N2":    {240079, 240079},
		"copapers/V-V-64D":  {954308, 954308},
		"copapers/V-V-64":   {954308, 954308},
		"copapers/V-N2":     {487500, 487500},
		"movielens/seq":     {28634, 28634},
		"movielens/N1-N2":   {12072, 12072},
		"movielens/V-V-64D": {57276, 57276},
		"movielens/V-V-64":  {57276, 57276},
		"movielens/V-N2":    {29537, 29537},
		"channel/seq":       {47084, 47084},
		"channel/N1-N2":     {29503, 29503},
		"channel/V-V-64D":   {94176, 94176},
		"channel/V-V-64":    {94176, 94176},
		"channel/V-N2":      {50562, 50562},
		"nlpkkt/seq":        {42610, 42610},
		"nlpkkt/N1-N2":      {21663, 21663},
		"nlpkkt/V-V-64D":    {85228, 85228},
		"nlpkkt/V-V-64":     {85228, 85228},
		"nlpkkt/V-N2":       {45162, 45162},
	}
	gs := smallPresets(t)
	for key, w := range want {
		name, algo, _ := strings.Cut(key, "/")
		res := runKernel(t, gs[name], algo, 1)
		if got := [2]int64{res.TotalWork, res.CriticalWork}; got != w {
			t.Errorf("%s: work (total, critical) = %v, want %v", key, got, w)
		}
	}
}

// BenchmarkKernel times the coloring kernels batch-kernel runs: every
// scale-1 preset with Sequential, and N1-N2 and V-V-64D at threads = 2
// and at threads = 1, where the colorings are those of the scan. Each
// reports mask-KB, the memory of the net color masks and detection
// flags the run keeps pooled (0 on presets without a net of
// maskMinNetDeg vertices).
//
//	go test -run '^$' -bench Kernel -benchmem ./internal/core
func BenchmarkKernel(b *testing.B) {
	for _, name := range kernelPresets {
		g, err := gen.Preset(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, algo := range kernelAlgos {
			for _, threads := range []int{2, 1} {
				if algo == "seq" && threads == 1 {
					continue // Sequential has no thread count
				}
				sub := fmt.Sprintf("%s/%s", name, algo)
				if threads == 1 {
					sub += "/t1"
				}
				b.Run(sub, func(b *testing.B) {
					b.ReportAllocs()
					// Each round runs on its own goroutine, which may
					// find the pooled masks on another P: warm the pool
					// on this one.
					runKernel(b, g, algo, threads)
					b.ResetTimer()
					var color, conflict time.Duration
					for i := 0; i < b.N; i++ {
						benchSink = runKernel(b, g, algo, threads)
						color += benchSink.ColoringTime
						conflict += benchSink.ConflictTime
					}
					b.StopTimer()
					n := float64(b.N)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n/float64(g.NumEdges()), "ns/nnz")
					b.ReportMetric(float64(color.Microseconds())/n/1e3, "color-ms/op")
					b.ReportMetric(float64(conflict.Microseconds())/n/1e3, "conflict-ms/op")
					kb := runMaskBytes(func() { runKernel(b, g, algo, threads) })
					b.ReportMetric(float64(kb)/1024, "mask-KB")
				})
			}
		}
	}
}

// BenchmarkFinishSequential completes a natural-order Sequential
// coloring of each kernel preset at scale 1 after uncoloring a random
// 1/share of its vertices, with the masks ("masked", which take them
// from 1/detectQueueShare up) and with the scan alone ("scan").
func BenchmarkFinishSequential(b *testing.B) {
	for _, name := range kernelPresets {
		g, err := gen.Preset(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		n := g.NumVertices()
		base := Sequential(g, nil).Colors
		for _, share := range []int{4096, 256, 16, 1} {
			partial := slices.Clone(base)
			for _, u := range rng.New(uint64(share)).Perm(n)[:n/share] {
				partial[u] = Uncolored
			}
			for _, masks := range []bool{true, false} {
				mode := "scan"
				if masks {
					mode = "masked"
				}
				b.Run(fmt.Sprintf("%s/1of%d/%s", name, share, mode), func(b *testing.B) {
					// A warm-up round fills the mask pool on this goroutine.
					colors := slices.Clone(partial)
					finishSequential(g, colors, masks)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(colors, partial)
						finishSequential(g, colors, masks)
					}
				})
			}
		}
	}
}

// BenchmarkDetectShare times a later iteration's vertex conflict phase
// of V-V-64D at threads = 2 on each kernel preset at scale 1, with the
// detect pass first ("detect") and with the scan alone ("scan"), for a
// queue of a random 1/share of the vertices (staleQueue: half of them
// conflicting). Where the two meet is the break-even share that
// detectQueueShare sets.
func BenchmarkDetectShare(b *testing.B) {
	opts, err := ParseAlgorithm("V-V-64D")
	if err != nil {
		b.Fatal(err)
	}
	opts.Threads = 2
	for _, name := range kernelPresets {
		g, err := gen.Preset(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		base := Sequential(g, nil).Colors
		scr := newScratch(g, opts.Threads, opts.Balance)
		for _, share := range []int{32, 64, 128, 256, 512, 1024} {
			W, colors := staleQueue(g, base, share)
			c := &Colors{c: colors}
			l := par.NewLocalQueues(opts.Threads, len(W))
			for _, detect := range []bool{true, false} {
				mode := "scan"
				if detect {
					mode = "detect"
				}
				b.Run(fmt.Sprintf("%s/1of%d/%s", name, share, mode), func(b *testing.B) {
					m := acquireMasks(g, opts.Threads)
					defer m.release()
					wc := NewWorkCounters(opts.Threads)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						var flags *netMasks
						if detect {
							m.detect(g, c, scr, &opts, nil)
							flags = m
						}
						l.Reset()
						conflictVertexPhase(g, W, c, flags, nil, l, &opts, wc, nil)
					}
				})
			}
		}
	}
}

var benchSink *Result
