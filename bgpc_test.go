package bgpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

func TestFacadeBGPCEndToEnd(t *testing.T) {
	g, err := NewBipartiteFromNets(4, [][]int32{{0, 1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := Algorithm("N1-N2")
	if err != nil {
		t.Fatal(err)
	}
	opts.Threads = 2
	res, err := Color(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBGPC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors < 3 {
		t.Fatalf("NumColors = %d", res.NumColors)
	}
}

func TestFacadeSequentialAndOrders(t *testing.T) {
	g, err := Preset("channel", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	nat := Sequential(g, NaturalOrder(g.NumVertices()))
	sl := Sequential(g, SmallestLast(g))
	lf := Sequential(g, LargestFirst(g))
	rnd := Sequential(g, RandomOrder(g.NumVertices(), 1))
	for _, res := range []*Result{nat, sl, lf, rnd} {
		if err := VerifyBGPC(g, res.Colors); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeD2EndToEnd(t *testing.T) {
	b, err := Preset("nlpkkt", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	g, err := UndirectedFromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	seq := SequentialD2(g, nil)
	if err := VerifyD2(g, seq.Colors); err != nil {
		t.Fatal(err)
	}
	opts, _ := Algorithm("V-N2")
	opts.Threads = 2
	opts.Balance = BalanceB1
	res, err := ColorD2(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyD2(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMatrixMarketRoundTrip(t *testing.T) {
	g, err := NewBipartite(2, 3, []Edge{{Net: 0, Vtx: 0}, {Net: 1, Vtx: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Fatalf("edges = %d", g2.NumEdges())
	}
}

func TestFacadeStatsAndPresets(t *testing.T) {
	if len(PresetNames()) != 8 || len(SymmetricPresetNames()) != 5 {
		t.Fatal("preset lists wrong")
	}
	if len(Algorithms()) != 8 {
		t.Fatal("algorithm list wrong")
	}
	s := Stats([]int32{0, 0, 1})
	if s.NumColors != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFacadeD1(t *testing.T) {
	b, err := Preset("channel", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	g, err := UndirectedFromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	seq := SequentialD1(g, nil)
	if err := VerifyD1(g, seq.Colors); err != nil {
		t.Fatal(err)
	}
	res, err := ColorD1(g, Options{Threads: 2, Chunk: 64, LazyQueues: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyD1(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeD1Trace(t *testing.T) {
	b, err := Preset("channel", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g, err := UndirectedFromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := NewJSONLTrace(&buf)
	opts := Options{Threads: 2, Chunk: 64, LazyQueues: true, Obs: NewObserver(sink)}
	res, err := ColorD1(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	perIter := map[int]map[string]int{}
	events := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if perIter[e.Iter] == nil {
			perIter[e.Iter] = map[string]int{}
		}
		perIter[e.Iter][e.Phase]++
		events++
	}
	if events != 2*res.Iterations {
		t.Fatalf("%d trace events for %d iterations, want %d", events, res.Iterations, 2*res.Iterations)
	}
	for it := 1; it <= res.Iterations; it++ {
		if p := perIter[it]; p["color"] != 1 || p["conflict"] != 1 {
			t.Fatalf("iteration %d: events by phase %v, want one color and one conflict", it, p)
		}
	}
}

func TestFacadeIncidenceDegree(t *testing.T) {
	g, err := Preset("nlpkkt", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ord := IncidenceDegree(g)
	res := Sequential(g, ord)
	if err := VerifyBGPC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRMATAndRecolor(t *testing.T) {
	g := RMAT(8, 6, 0.55, 0.2, 0.2, false, 9)
	res := Sequential(g, nil)
	compacted, count, err := Recolor(g, res.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBGPC(g, compacted); err != nil {
		t.Fatal(err)
	}
	if count > res.NumColors {
		t.Fatal("recolor increased colors")
	}
}

func TestFacadeJacobianPattern(t *testing.T) {
	g, err := NewBipartiteFromNets(3, [][]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	res := Sequential(g, nil)
	p, err := NewJacobianPattern(g, res.Colors)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(x, y []float64) {
		y[0] = 2*x[0] + x[1]
		y[1] = x[1] - 3*x[2]
	}
	jac, err := p.Forward(eval, []float64{1, 1, 1}, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if v := jac.Value(1, 2); v > -2.9 || v < -3.1 {
		t.Fatalf("J[1][2] = %v, want -3", v)
	}
}

func TestFacadePlan(t *testing.T) {
	g, err := Preset("nlpkkt", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res := Sequential(g, nil)
	if err := VerifyBGPC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(res.Colors)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumItems() != g.NumVertices() || plan.NumSets() != res.NumColors {
		t.Fatalf("plan: %d items, %d sets (want %d, %d)",
			plan.NumItems(), plan.NumSets(), g.NumVertices(), res.NumColors)
	}
	ug, err := UndirectedFromBipartite(g)
	if err != nil {
		t.Fatal(err)
	}
	d2res := SequentialD2(ug, nil)
	if err := VerifyD2(ug, d2res.Colors); err != nil {
		t.Fatal(err)
	}
	// Transpose is available directly on the aliased type.
	tr := g.Transpose()
	if tr.NumNets() != g.NumVertices() {
		t.Fatal("transpose dims wrong")
	}
	rowRes := Sequential(tr, nil) // row coloring = column coloring of Aᵀ
	if err := VerifyBGPC(tr, rowRes.Colors); err != nil {
		t.Fatal(err)
	}
}
