package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/gen"
	"bgpc/internal/limits"
	"bgpc/internal/obs"
	"bgpc/internal/par"
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

// maskSpecs are the named variants plus the B1 and B2 balanced
// variants of V-V-64D and V-N2, which take conflict detection but not
// the masked first fit.
func maskSpecs() []Spec {
	specs := NamedAlgorithms()
	for _, name := range []string{"V-V-64D", "V-N2"} {
		for _, b := range []Balance{BalanceB1, BalanceB2} {
			opts, _ := ParseAlgorithm(name)
			opts.Balance = b
			specs = append(specs, Spec{Name: name + "-" + b.String(), Opts: opts})
		}
	}
	return specs
}

// TestMasksExact runs every job twice, on the mask path and with the
// masks off, which also switches conflict detection off: Sequential in
// natural and random order, and every variant of maskSpecs at
// threads = 1. Colors and work must be identical. At threads = 4 every
// coloring must be valid, and the detected queue must be the scan's
// (checkDetect), on iteration 1's colors and on a clashing coloring.
// Detection must flag vertices on graphs without a large net, and
// vertices whose only conflicts lie in nets smaller than
// maskMinNetDeg, or the pass went untested where the masks have no
// row.
func TestMasksExact(t *testing.T) {
	masked, rowless, small := 0, 0, 0
	for name, g := range maskGraphs(t) {
		if hasRows(g) {
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
		for _, spec := range maskSpecs() {
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
			if opts.NetColorIters != 0 || opts.NetCRIters != 0 {
				continue
			}
			for _, colors := range []struct {
				name string
				make func(*bipartite.Graph, Options) ([]int32, *Colors)
			}{{"iteration 1", firstColors}, {"clash", clashColors}} {
				W, c := colors.make(g, opts)
				flags, err := checkDetect(g, W, c, opts)
				if err != nil {
					t.Errorf("%s/%s at 4 threads on %s colors: %v", name, spec.Name, colors.name, err)
				}
				if !hasRows(g) {
					rowless += len(flags)
				}
				small += smallOnly(g, c, flags)
			}
		}
	}
	if masked < 10 {
		t.Fatalf("only %d graphs have a net of %d vertices; the differential would not cover the masks", masked, maskMinNetDeg)
	}
	if rowless == 0 {
		t.Fatal("conflict detection flagged no vertex of a graph without a large net")
	}
	if small == 0 {
		t.Fatalf("conflict detection flagged no vertex whose conflicts all lie in nets of fewer than %d vertices", maskMinNetDeg)
	}
}

// firstColors replays iteration 1's vertex coloring phase of a
// vertex-based schedule with its own threads, and returns its queue and
// colors.
func firstColors(g *bipartite.Graph, opts Options) ([]int32, *Colors) {
	n, threads := g.NumVertices(), opts.threads()
	c := NewColors(n)
	var W []int32
	for u := int32(0); int(u) < n; u++ {
		if g.VtxDeg(u) == 0 {
			c.Set(u, 0)
		} else {
			W = append(W, u)
		}
	}
	var m *netMasks
	if opts.Balance == BalanceNone && hasRows(g) {
		m = acquireMasks(g, threads)
		defer m.release()
	}
	scr := newScratch(g, threads, opts.Balance)
	colorVertexPhase(g, W, c, scr, m, false, g.SortedNets(), &opts, NewWorkCounters(threads), nil)
	return W, c
}

// clashColors queues every vertex with a net and gives each one of four
// colors at random, so that nets of every size hold conflicts.
func clashColors(g *bipartite.Graph, _ Options) ([]int32, *Colors) {
	n := g.NumVertices()
	r := rng.New(uint64(n))
	c := NewColors(n)
	var W []int32
	for u := int32(0); int(u) < n; u++ {
		c.Set(u, int32(r.Intn(4)))
		if g.VtxDeg(u) > 0 {
			W = append(W, u)
		}
	}
	return W, c
}

// checkDetect runs the vertex conflict phase of a vertex-based
// schedule on W and colors c with its own threads, with and without a
// detect pass on those colors. The detected queue must hold exactly
// the vertices vertexConflicts reports, and both phases must charge the
// same total work. It returns the queued vertices the pass flagged.
func checkDetect(g *bipartite.Graph, W []int32, c *Colors, opts Options) (flagged []int32, err error) {
	threads := opts.threads()
	var want []int32
	var scanWork int64
	for _, w := range W {
		if vertexConflicts(g, w, c, &scanWork) {
			want = append(want, w)
		}
	}
	phase := func(flags *netMasks) ([]int32, int64) {
		wc := NewWorkCounters(threads)
		var got []int32
		if opts.LazyQueues {
			l := par.NewLocalQueues(threads, len(W))
			conflictVertexPhase(g, W, c, flags, nil, l, &opts, wc, nil)
			got = l.MergeInto(nil)
		} else {
			q := par.NewSharedQueue(len(W))
			conflictVertexPhase(g, W, c, flags, q, nil, &opts, wc, nil)
			got = slices.Clone(q.Items())
		}
		slices.Sort(got)
		total, _ := wc.TotalAndMax()
		return got, total
	}
	m := acquireMasks(g, threads)
	if m == nil {
		return nil, fmt.Errorf("no masks on sorted nets")
	}
	defer m.release()
	m.detect(g, c, newScratch(g, threads, opts.Balance), &opts, nil)
	for _, w := range W {
		if m.flag[w] == m.stamp {
			flagged = append(flagged, w)
		}
	}
	got, work := phase(m)
	_, scanned := phase(nil)
	if !slices.Equal(got, want) {
		return flagged, fmt.Errorf("detection queued %d vertices, the scan reports %d conflicts", len(got), len(want))
	}
	if work != scanned {
		return flagged, fmt.Errorf("conflict work %d with detection, %d scanning", work, scanned)
	}
	return flagged, nil
}

// smallOnly counts the vertices of flagged whose every conflict lies in
// a net of fewer than maskMinNetDeg vertices: no smaller vertex of
// their large nets holds their color.
func smallOnly(g *bipartite.Graph, c *Colors, flagged []int32) (k int) {
	for _, w := range flagged {
		large := false
		for _, v := range g.Nets(w) {
			if g.NetDeg(v) < maskMinNetDeg {
				continue
			}
			for _, u := range g.Vtxs(v) {
				if u < w && c.Get(u) == c.Get(w) {
					large = true
				}
			}
		}
		if !large {
			k++
		}
	}
	return k
}

// TestMasksQueuedExact replays the vertex coloring phase that follows
// a vertex-based conflict removal. From a random-order Sequential
// coloring, 1/2, 1/16 and 1/200 of the vertices are queued in random
// order, every other one given a distance-2 neighbour's color (a
// conflict) and the rest a random stale color. The phase then runs at
// threads = 1 on the masks built from the queue and on the scan, from
// the same colors: colors and work must be identical. At threads = 4
// no queued vertex may end on the color of a distance-2 neighbour
// outside the queue, since the masks hold those colors exactly.
func TestMasksQueuedExact(t *testing.T) {
	gs := maskGraphs(t)
	for _, name := range []string{"movielens", "copapers"} {
		g, err := gen.Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		gs[name+"@1"] = g
	}
	cases := 0
	for name, g := range gs {
		if !hasRows(g) {
			continue
		}
		n := g.NumVertices()
		base := Sequential(g, rng.New(3).Perm(n)).Colors
		for _, share := range []int{2, 16, 200} {
			W, colors := staleQueue(g, base, share)
			if detectQueueShare*len(W) < n {
				t.Fatalf("%s/1/%d: %d of %d vertices queued would not take the masks", name, share, len(W), n)
			}
			masked, work := replayQueued(t, g, W, colors, 1, true)
			scanned, scanWork := replayQueued(t, g, W, colors, 1, false)
			if !slices.Equal(masked, scanned) {
				t.Errorf("%s/1/%d: colors differ from the scan", name, share)
			}
			if work != scanWork {
				t.Errorf("%s/1/%d: work %d with masks, %d scanning", name, share, work, scanWork)
			}
			wide, _ := replayQueued(t, g, W, colors, 4, true)
			if err := outsideConflict(g, W, wide); err != nil {
				t.Errorf("%s/1/%d at 4 threads: %v", name, share, err)
			}
			cases++
		}
	}
	if cases < 40 {
		t.Fatalf("only %d masked cases ran", cases)
	}
	t.Logf("%d masked cases", cases)
}

// staleQueue queues ⌈n/share⌉ random vertices with a net, in random
// order, and returns them with a copy of base in which every other
// queued vertex holds the color of a distance-2 neighbour and the rest
// a random color up to a few past base's largest.
func staleQueue(g *bipartite.Graph, base []int32, share int) (W, colors []int32) {
	n := g.NumVertices()
	r := rng.New(uint64(share))
	for _, w := range r.Perm(n) {
		if g.VtxDeg(w) > 0 {
			W = append(W, w)
		}
	}
	W = W[:min(len(W), (n+share-1)/share)]
	colors = slices.Clone(base)
	top := slices.Max(base) + 8
	for i, w := range W {
		colors[w] = int32(r.Intn(int(top)))
		if i%2 == 0 {
			nets := g.Nets(w)
			vt := g.Vtxs(nets[r.Intn(len(nets))])
			colors[w] = base[vt[r.Intn(len(vt))]]
		}
	}
	return W, colors
}

// replayQueued runs V-V-64D's vertex coloring phase over W from colors
// with the given threads, on masks built from the queue or on the
// scan, and returns the colors and the phase's total work.
func replayQueued(tb testing.TB, g *bipartite.Graph, W, colors []int32, threads int, masks bool) ([]int32, int64) {
	tb.Helper()
	opts, err := ParseAlgorithm("V-V-64D")
	if err != nil {
		tb.Fatal(err)
	}
	opts.Threads = threads
	c := &Colors{c: slices.Clone(colors)}
	var m *netMasks
	if masks {
		if m = acquireMasks(g, threads); m == nil {
			tb.Fatal("no masks")
		}
		defer m.release()
		m.build(g, c, W, &opts, nil)
	}
	wc := NewWorkCounters(threads)
	colorVertexPhase(g, W, c, newScratch(g, threads, BalanceNone), m, masks, false, &opts, wc, nil)
	total, _ := wc.TotalAndMax()
	return c.Raw(), total
}

// outsideConflict reports a queued vertex of W that shares its color
// with a distance-2 neighbour outside W.
func outsideConflict(g *bipartite.Graph, W, colors []int32) error {
	queued := make([]bool, g.NumVertices())
	for _, w := range W {
		queued[w] = true
	}
	for _, w := range W {
		for _, v := range g.Nets(w) {
			for _, u := range g.Vtxs(v) {
				if !queued[u] && colors[u] == colors[w] {
					return fmt.Errorf("queued vertex %d shares color %d with vertex %d outside the queue", w, colors[w], u)
				}
			}
		}
	}
	return nil
}

// TestFinishSequentialMasksExact uncolors random shares of a
// random-order Sequential coloring of copapers and movielens (natural
// order would just restore a natural-order coloring), on both sides of
// 1/detectQueueShare and all of the vertices, and completes each with
// FinishSequential and with the masks off. Above the share the masks
// are built from the colors left standing; the completions must be
// identical and valid.
func TestFinishSequentialMasksExact(t *testing.T) {
	for _, name := range []string{"copapers", "movielens"} {
		g, err := gen.Preset(name, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if !hasRows(g) {
			t.Fatalf("%s has no net of %d vertices", name, maskMinNetDeg)
		}
		n := g.NumVertices()
		base := Sequential(g, rng.New(1).Perm(n)).Colors
		for _, share := range []int{4 * detectQueueShare, detectQueueShare / 4, 16, 1} {
			k := n / share
			if share > detectQueueShare && detectQueueShare*k >= n {
				t.Fatalf("%s: %d of %d vertices would take the masks", name, k, n)
			}
			partial := slices.Clone(base)
			for _, u := range rng.New(uint64(share)).Perm(n)[:k] {
				partial[u] = Uncolored
			}
			masked, scanned := slices.Clone(partial), slices.Clone(partial)
			if got := finishSequential(g, masked, true); got != k {
				t.Errorf("%s/1/%d: finished %d, want %d", name, share, got, k)
			}
			finishSequential(g, scanned, false)
			if !slices.Equal(masked, scanned) {
				t.Errorf("%s/1/%d: colors differ from the scan", name, share)
			}
			if err := verify.BGPC(g, masked); err != nil {
				t.Errorf("%s/1/%d: %v", name, share, err)
			}
		}
	}
}

// TestDetectCancelPoolReuse cancels a V-V-64D run in iteration 1's
// conflict phase, where the detect pass has flagged part of the graph,
// and then colors a smaller graph and the first graph again at
// threads = 1 from the same mask pool. Each must match a fresh scan
// with the masks off: flags a canceled pass left in a pooled array,
// past the smaller graph's vertices too, must never be read as current.
func TestDetectCancelPoolReuse(t *testing.T) {
	defer failpoint.Reset()
	gs := smallPresets(t)
	g, other := gs["copapers"], gs["movielens"]
	if !hasRows(g) || !hasRows(other) || other.NumVertices() >= g.NumVertices() {
		t.Fatal("the presets no longer give two masked graphs, the second smaller")
	}
	opts, err := ParseAlgorithm("V-V-64D")
	if err != nil {
		t.Fatal(err)
	}

	// The first trace event closes iteration 1's color phase; the sink
	// then arms a cancel at the conflict phase's first chunk, which is
	// the detect pass's.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{after: 1, cancel: func() {
		if err := failpoint.Arm(par.FPDispatch, "cancel@1"); err != nil {
			t.Error(err)
		}
	}}
	canceled := opts
	canceled.Threads = 2
	canceled.Obs = obs.New(sink).WithAlgo("V-V-64D")
	res, err := ColorCtx(ctx, g, canceled)
	var ce *CancelError
	if !errors.Is(err, ErrCanceled) || !errors.As(err, &ce) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// An "@1" point disarms itself once it fires.
	if _, armed := sink.fired(); !armed || slices.Contains(failpoint.Active(), par.FPDispatch) || ce.Iteration != 1 {
		t.Fatalf("canceled in iteration %d, failpoint armed %v and still pending %v: not in iteration 1's conflict phase",
			ce.Iteration, armed, failpoint.Active())
	}
	if err := verify.BGPCPartial(g, res.Colors); err != nil {
		t.Fatalf("partial coloring invalid: %v", err)
	}
	if m, _ := maskPool.Get().(*netMasks); m != nil {
		stale := 0
		for _, f := range m.flag {
			if f == m.stamp {
				stale++
			}
		}
		t.Logf("the canceled pass left %d flags of %d vertices in the pool", stale, len(m.flag))
		maskPool.Put(m)
	}

	opts.Threads = 1
	for _, h := range []struct {
		name string
		g    *bipartite.Graph
	}{{"movielens", other}, {"copapers", g}} {
		a, err := ColorCtx(context.Background(), h.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := colorCtx(context.Background(), h.g, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRun(a, b); err != nil {
			t.Errorf("%s after the canceled run: %v", h.name, err)
		}
	}
}

// queueCancelSink arms a cancel at the first chunk of iteration 2's
// color loop, after skip dispatches of its build, when iteration 1's
// conflict phase queued enough vertices for the masks.
type queueCancelSink struct {
	tb    testing.TB
	n     int
	skip  int
	armed bool
}

func (s *queueCancelSink) Emit(e obs.Event) {
	if e.Iter == 1 && e.Phase == obs.PhaseConflict && detectQueueShare*e.Conflicts >= s.n {
		if err := failpoint.Arm(par.FPDispatch, fmt.Sprintf("cancel@1#%d", s.skip)); err != nil {
			s.tb.Error(err)
		}
		s.armed = true
	}
}

// TestQueuedMasksCancelPoolReuse cancels a V-V-64D run of scale-1
// movielens in iteration 2's color loop, after build has flagged the
// queue and listed its members. It then colors two smaller graphs at
// threads = 1 from the same mask pool and replays a queued phase on
// one: each must match the scan. The queued state a canceled phase
// leaves in pooled masks must never be read as current. Iteration 2
// exists only when iteration 1's threads collided, so the run is
// repeated until they have, for up to 5 s: on a host too loaded to run
// two of them at once the test is skipped.
func TestQueuedMasksCancelPoolReuse(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("iteration 1's threads collide only when two of them run at once")
	}
	defer failpoint.Reset()
	g, err := gen.Preset("movielens", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := ParseAlgorithm("V-V-64D")
	if err != nil {
		t.Fatal(err)
	}
	opts.Threads = 4
	m := acquireMasks(g, opts.Threads)
	if m == nil {
		t.Fatal("no masks for movielens")
	}
	builds := (len(m.nets) + opts.chunk() - 1) / opts.chunk()
	m.release()

	var ce *CancelError
	tries := 0
	for start := time.Now(); ce == nil && time.Since(start) < 5*time.Second; tries++ {
		ctx, cancel := context.WithCancel(context.Background())
		sink := &queueCancelSink{tb: t, n: g.NumVertices(), skip: builds}
		canceled := opts
		canceled.Obs = obs.New(sink).WithAlgo("V-V-64D")
		res, err := ColorCtx(ctx, g, canceled)
		cancel()
		if !sink.armed {
			continue
		}
		if !errors.As(err, &ce) || ce.Iteration != 2 || slices.Contains(failpoint.Active(), par.FPDispatch) {
			t.Fatalf("err = %v, failpoint still pending %v: not canceled in iteration 2", err, failpoint.Active())
		}
		if err := verify.BGPCPartial(g, res.Colors); err != nil {
			t.Fatalf("partial coloring invalid: %v", err)
		}
	}
	if ce == nil {
		t.Skipf("none of %d runs in 5 s queued enough conflicts for the masks in iteration 2", tries)
	}
	t.Logf("canceled in iteration 2 of run %d", tries)

	gs := smallPresets(t)
	opts.Threads = 1
	for _, name := range []string{"movielens", "copapers"} {
		a, err := ColorCtx(context.Background(), gs[name], opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := colorCtx(context.Background(), gs[name], opts, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRun(a, b); err != nil {
			t.Errorf("%s after the canceled run: %v", name, err)
		}
	}
	h := gs["copapers"]
	W, colors := staleQueue(h, Sequential(h, nil).Colors, 16)
	masked, _ := replayQueued(t, h, W, colors, 1, true)
	if scanned, _ := replayQueued(t, h, W, colors, 1, false); !slices.Equal(masked, scanned) {
		t.Error("queued replay after the canceled run: colors differ from the scan")
	}
}

// TestDetectStampWrap fills a pooled flag array with the stamp that
// follows a wrap-around and runs a detect pass whose stamp wraps: the
// array must be cleared, so that the flags are exactly the vertices
// that are not their color's first holder in some net.
func TestDetectStampWrap(t *testing.T) {
	g := smallPresets(t)["copapers"]
	opts := Options{Threads: 1}
	m := acquireMasks(g, 1)
	if m == nil {
		t.Fatal("no masks for copapers")
	}
	defer m.release()
	m.flag = resize(m.flag, g.NumVertices())
	all := m.flag[:cap(m.flag)]
	for i := range all {
		all[i] = 1
	}
	m.stamp = math.MaxInt32
	_, c := clashColors(g, opts)
	m.detect(g, c, newScratch(g, 1, BalanceNone), &opts, nil)
	if m.stamp != 1 {
		t.Fatalf("stamp after the wrap = %d, want 1", m.stamp)
	}
	want := make([]bool, g.NumVertices())
	for v := int32(0); int(v) < g.NumNets(); v++ {
		seen := map[int32]bool{}
		for _, u := range g.Vtxs(v) {
			want[u] = want[u] || seen[c.Get(u)]
			seen[c.Get(u)] = true
		}
	}
	for u, w := range want {
		if got := m.flag[u] == m.stamp; got != w {
			t.Fatalf("vertex %d: flagged %v, want %v", u, got, w)
		}
	}
}

// TestMasksCap colors the cap shape through the masks directly and
// checks that the words in use stay within one per maskNNZPerWord
// nonzeros, that the cap binds (colors past the last maskable block
// take the scan fallback), and that the colors are the scan's.
func TestMasksCap(t *testing.T) {
	g := capShape(t)
	m := acquireMasks(g, 1)
	if m == nil {
		t.Fatal("no masks for the cap shape")
	}
	defer m.release()
	if m.maxBlocks*64 >= g.NumVertices() {
		t.Fatalf("cap leaves %d blocks for %d vertices: it does not bind", m.maxBlocks, g.NumVertices())
	}
	c, f := NewColors(g.NumVertices()), NewForbidden(ForbiddenSize(g))
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		f.Reset()
		m.color(g, u, c, f, 0, fullScan, false)
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
	n := 4*cap(m.rowOf) + 4*cap(m.nets) + 4*cap(m.flag) + 24*cap(m.blocks) +
		8*cap(m.memberOff) + 4*cap(m.members) + int(unsafe.Sizeof(rowBuf{}))*cap(m.big)
	for _, b := range m.blocks[:cap(m.blocks)] {
		n += 8 * cap(b)
	}
	for _, b := range m.big[:cap(m.big)] {
		n += 4 * cap(b.rows)
	}
	return int64(n)
}

// runMaskBytes runs job on an empty mask pool and returns the memory
// of the masks it left there, 0 when it used none; the masks go back
// to the pool. Two collections empty a sync.Pool. The retries cover
// masks put back on another P, and the race detector's pool, which
// drops a quarter of what is put.
func runMaskBytes(job func()) int64 {
	for try := 0; try < 20; try++ {
		runtime.GC()
		runtime.GC()
		job()
		if m, _ := maskPool.Get().(*netMasks); m != nil {
			defer m.release()
			return m.retainedBytes()
		}
	}
	return 0
}

// TestMasksWithinEstimate checks limits.MaskBytes, the masks' term of
// the admission estimate, against the memory the masks of a run keep,
// for Sequential and two schedules at 1 and 4 threads. A run that ends
// without a vertex phase must not take masks at all.
func TestMasksWithinEstimate(t *testing.T) {
	gs := smallPresets(t)
	gs["cap"] = capShape(t)
	for _, name := range []string{"copapers", "movielens", "cap"} {
		g := gs[name]
		for _, threads := range []int{1, 4} {
			sh := limits.Shape{Rows: g.NumNets(), Cols: g.NumVertices(), NNZ: g.NumEdges(), Threads: threads}
			for _, algo := range []string{"seq", "N1-N2", "V-V-64D"} {
				var res *Result
				got := runMaskBytes(func() { res = runKernel(t, g, algo, threads) })
				// An N1-N2 run done in one iteration ran net phases only,
				// which take no masks.
				netOnly := algo == "N1-N2" && res.Iterations == 1
				switch bound := limits.MaskBytes(sh); {
				case netOnly && got != 0:
					t.Errorf("%s/%s at %d threads: net phases only, yet masks keep %d B", name, algo, threads, got)
				case !netOnly && (got == 0 || got > bound):
					t.Errorf("%s/%s at %d threads: masks keep %d B, limits.MaskBytes = %d", name, algo, threads, got, bound)
				}
			}
		}
	}
}
