package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/limits"
	"bgpc/internal/rng"
	"bgpc/internal/testutil"
	"bgpc/internal/verify"
)

// thresholdGraph has nets on both sides of maskMinNetDeg and around it
// (sizes 3 to 40), over a random vertex set, so the mask path mixes
// scanned and masked nets for most vertices.
func thresholdGraph(tb testing.TB, seed uint64) *bipartite.Graph {
	tb.Helper()
	const numVtx = 300
	r := rng.New(seed)
	var nets [][]int32
	for _, size := range []int{3, 8, 16, 31, 32, 33, 40} {
		for k := 0; k < 12; k++ {
			nets = append(nets, r.Perm(numVtx)[:size])
		}
	}
	g, err := bipartite.FromNetLists(numVtx, nets)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// capShape is the adversarial shape for the mask cap: one net holds
// every vertex, so the coloring needs numVtx colors, and many nets sit
// just at maskMinNetDeg, so every row would need a word per 64 of those
// colors without the cap.
func capShape(tb testing.TB) *bipartite.Graph {
	tb.Helper()
	const numVtx, mid = 1200, 600
	r := rng.New(7)
	all := make([]int32, numVtx)
	for i := range all {
		all[i] = int32(i)
	}
	nets := [][]int32{all}
	for k := 0; k < mid; k++ {
		nets = append(nets, r.Perm(numVtx)[:maskMinNetDeg])
	}
	g, err := bipartite.FromNetLists(numVtx, nets)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// maskGraphs are the differential's inputs: the four batch-kernel
// presets at scale 0.05, Zipf and RMAT seeds, the threshold graph and
// the cap shape.
func maskGraphs(tb testing.TB) map[string]*bipartite.Graph {
	gs := smallPresets(tb)
	for seed := uint64(1); seed <= 3; seed++ {
		gs[fmt.Sprintf("zipf/%d", seed)] = gen.ZipfBipartite(60, 300, 2, 80, 1.1, 0.9, seed)
		gs[fmt.Sprintf("rmat/%d", seed)] = gen.RMAT(9, 8, 0.57, 0.19, 0.19, false, seed)
		gs[fmt.Sprintf("threshold/%d", seed)] = thresholdGraph(tb, seed)
	}
	gs["cap"] = capShape(tb)
	return gs
}

func hasLargeNet(g *bipartite.Graph) bool {
	for v := int32(0); int(v) < g.NumNets(); v++ {
		if g.NetDeg(v) >= maskMinNetDeg {
			return true
		}
	}
	return false
}

// sameRun reports how two runs of one job differ in colors or work.
func sameRun(masked, scanned *Result) error {
	if !slices.Equal(masked.Colors, scanned.Colors) {
		return fmt.Errorf("colors differ")
	}
	if masked.TotalWork != scanned.TotalWork || masked.CriticalWork != scanned.CriticalWork {
		return fmt.Errorf("work (total, critical) = (%d, %d) with masks, (%d, %d) scanning",
			masked.TotalWork, masked.CriticalWork, scanned.TotalWork, scanned.CriticalWork)
	}
	return nil
}

// TestMasksExact runs every job twice, on the mask path and with the
// masks off: Sequential in natural and random order, and every named
// variant at threads = 1 without balancing. Colors and work must be
// identical. At threads = 4 the masked colorings must be valid.
func TestMasksExact(t *testing.T) {
	masked := 0
	for name, g := range maskGraphs(t) {
		if hasLargeNet(g) {
			masked++
		}
		for _, order := range []struct {
			name string
			perm []int32
		}{{"natural", nil}, {"random", rng.New(11).Perm(g.NumVertices())}} {
			if err := sameRun(sequential(g, order.perm, true), sequential(g, order.perm, false)); err != nil {
				t.Errorf("%s/seq/%s: %v", name, order.name, err)
			}
		}
		for _, spec := range NamedAlgorithms() {
			opts := spec.Opts
			opts.Threads = 1
			a, err := colorCtx(context.Background(), g, opts, true)
			if err != nil {
				t.Fatal(err)
			}
			b, err := colorCtx(context.Background(), g, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRun(a, b); err != nil {
				t.Errorf("%s/%s: %v", name, spec.Name, err)
			}
			opts.Threads = 4
			res, err := Color(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.BGPC(g, res.Colors); err != nil {
				t.Errorf("%s/%s at 4 threads: %v", name, spec.Name, err)
			}
		}
	}
	if masked < 10 {
		t.Fatalf("only %d graphs have a net of %d vertices; the differential would not cover the masks", masked, maskMinNetDeg)
	}
}

// TestMasksCap colors the cap shape through the masks directly and
// checks that the words in use stay within one per maskNNZPerWord
// nonzeros, that the cap binds (colors past the last maskable block
// take the scan fallback), and that the colors are the scan's.
func TestMasksCap(t *testing.T) {
	g := capShape(t)
	bound := g.MaxColorUpperBound() + 1
	m := acquireMasks(g, 1, bound)
	if m == nil {
		t.Fatal("no masks for the cap shape")
	}
	defer m.release()
	if m.maxBlocks*64 >= bound {
		t.Fatalf("cap leaves %d blocks for %d colors: it does not bind", m.maxBlocks, bound)
	}
	c, f := NewColors(g.NumVertices()), NewForbidden(bound)
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		f.Reset()
		m.color(g, u, c, f, 0, fullScan)
	}
	words, limit := int(m.nblocks.Load())*len(m.nets), int(g.NumEdges()/maskNNZPerWord)
	if words > limit {
		t.Errorf("%d mask words in use, cap is %d (nnz %d)", words, limit, g.NumEdges())
	}
	want := sequential(g, nil, false).Colors
	if !slices.Equal(c.Raw(), want) {
		t.Error("capped masks color differently from the scan")
	}
	if got := slices.Max(want) + 1; int(got) <= m.maxBlocks*64 {
		t.Errorf("%d colors: the scan fallback was not exercised", got)
	}
}

// TestMasksNoAllocs: once a run has returned its masks to the pool, a
// second Sequential or ColorCtx on the same graph allocates no mask
// memory. Sequential allocates exactly as often as the scan. ColorCtx
// may allocate once more: N1-N2 builds the masks after its net-based
// conflict removal, in a parallel loop whose closure escapes. A pool
// miss would allocate the row index, the net list, the block table,
// every block and the row buffer, five times or more.
func TestMasksNoAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	g := smallPresets(t)["copapers"]
	allocs := func(run func()) float64 {
		run()
		return testing.AllocsPerRun(20, run)
	}
	seq := func(masks bool) func() { return func() { sequential(g, nil, masks) } }
	if on, off := allocs(seq(true)), allocs(seq(false)); on != off {
		t.Errorf("Sequential: %.0f allocations with masks, %.0f without", on, off)
	}
	for _, algo := range []string{"N1-N2", "V-V-64D"} {
		opts, err := ParseAlgorithm(algo)
		if err != nil {
			t.Fatal(err)
		}
		opts.Threads = 1
		run := func(masks bool) func() {
			return func() {
				if _, err := colorCtx(context.Background(), g, opts, masks); err != nil {
					t.Fatal(err)
				}
			}
		}
		if on, off := allocs(run(true)), allocs(run(false)); on > off+1 {
			t.Errorf("%s: %.0f allocations with masks, %.0f without", algo, on, off)
		}
	}
}

// retainedBytes is the memory m holds, by capacity.
func (m *netMasks) retainedBytes() int64 {
	n := 4*cap(m.rowOf) + 4*cap(m.nets) + 24*cap(m.blocks) + 24*cap(m.big)
	for _, b := range m.blocks[:cap(m.blocks)] {
		n += 8 * cap(b)
	}
	for _, b := range m.big[:cap(m.big)] {
		n += 4 * cap(b)
	}
	return int64(n)
}

// runMaskBytes runs job on an empty mask pool and returns the memory
// of the masks it left there, 0 when it used none. Two collections
// empty a sync.Pool. The retries cover masks put back on another P,
// and the race detector's pool, which drops a quarter of what is put.
func runMaskBytes(job func()) int64 {
	for try := 0; try < 20; try++ {
		runtime.GC()
		runtime.GC()
		job()
		if m, _ := maskPool.Get().(*netMasks); m != nil {
			return m.retainedBytes()
		}
	}
	return 0
}

// TestMasksWithinEstimate checks limits.MaskBytes, the masks' term of
// the admission estimate, against the memory the masks of a run keep,
// for Sequential and two schedules at 1 and 4 threads.
func TestMasksWithinEstimate(t *testing.T) {
	gs := smallPresets(t)
	gs["cap"] = capShape(t)
	for _, name := range []string{"copapers", "movielens", "cap"} {
		g := gs[name]
		for _, threads := range []int{1, 4} {
			sh := limits.Shape{Rows: g.NumNets(), Cols: g.NumVertices(), NNZ: g.NumEdges(), Threads: threads}
			for _, algo := range []string{"seq", "N1-N2", "V-V-64D"} {
				got := runMaskBytes(func() { runKernel(t, g, algo, threads) })
				if bound := limits.MaskBytes(sh); got == 0 || got > bound {
					t.Errorf("%s/%s at %d threads: masks keep %d B, limits.MaskBytes = %d", name, algo, threads, got, bound)
				}
			}
		}
	}
}
