package delta

// The golden differential test pins every single-threaded coloring the
// kernels produce on a fixed input set: D2GC and BGPC under every named
// schedule and balancing policy, D1GC under every vertex-based one, the
// sequential baselines, graphs with isolated vertices, the simulated
// distributed D2GC with its communication statistics, and the
// delta-recolor cases of the differential harness. Each coloring is reduced to a 64-bit digest and compared
// against testdata/golden_colorings.txt, so a refactor of the shared
// runner that moves even one color fails here with the run's name.
//
// Regenerate the file only when a coloring change is intended:
//
//	go test ./internal/delta -run TestGoldenColorings -update-golden

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/d1"
	"bgpc/internal/d2"
	"bgpc/internal/dist"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/verify"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_colorings.txt from the current kernels")

const (
	goldenFile  = "testdata/golden_colorings.txt"
	goldenScale = 0.04
)

// digest renders a coloring as "<distinct colors> <fnv64a>".
func digest(colors []int32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range colors {
		b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%d %016x", verify.Stats(colors).NumColors, h.Sum64())
}

// isolatedUndirected is a random graph in which every third vertex has
// no neighbour, so both B1 parities meet isolated vertices mid-queue.
func isolatedUndirected(t *testing.T) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	const n = 240
	var edges []graph.Edge
	for len(edges) < 600 {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v && u%3 != 0 && v%3 != 0 {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// isolatedBipartite is a random bipartite graph in which every fifth
// vertex is in no net and every fifth (offset one) is the only vertex
// of a private net.
func isolatedBipartite(t *testing.T) *bipartite.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	const shared, numVtx = 40, 200
	var edges []bipartite.Edge
	private := int32(shared)
	for u := int32(0); u < numVtx; u++ {
		switch u % 5 {
		case 0:
		case 1:
			edges = append(edges, bipartite.Edge{Net: private, Vtx: u})
			private++
		default:
			for k := 0; k < 3; k++ {
				edges = append(edges, bipartite.Edge{Net: int32(r.Intn(shared)), Vtx: u})
			}
		}
	}
	g, err := bipartite.FromEdges(int(private), numVtx, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenColorings runs every pinned coloring and returns its digests
// by name.
func goldenColorings(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	put := func(name string, colors []int32) {
		if _, dup := out[name]; dup {
			t.Fatalf("duplicate golden name %q", name)
		}
		out[name] = digest(colors)
	}
	balances := []core.Balance{core.BalanceNone, core.BalanceB1, core.BalanceB2}

	ugs := map[string]*graph.Graph{"isolated": isolatedUndirected(t)}
	bgs := map[string]*bipartite.Graph{"isolated": isolatedBipartite(t)}
	for _, name := range gen.PresetNames() {
		b, err := gen.Preset(name, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		bgs[name] = b
		if b.IsStructurallySymmetric() {
			if ugs[name], err = graph.FromBipartite(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	for name, ug := range ugs {
		put("d2/"+name+"/seq", d2.Sequential(ug, nil).Colors)
		for _, spec := range core.NamedAlgorithms() {
			for _, bal := range balances {
				opts := spec.Opts
				opts.Threads, opts.Balance = 1, bal
				res, err := d2.Color(ug, opts)
				if err != nil {
					t.Fatalf("d2 %s/%s/%v: %v", name, spec.Name, bal, err)
				}
				put(fmt.Sprintf("d2/%s/%s/%v", name, spec.Name, bal), res.Colors)
			}
		}
	}

	for name, ug := range ugs {
		put("d1/"+name+"/seq", d1.Sequential(ug, nil).Colors)
		for _, spec := range core.NamedAlgorithms() {
			if spec.Opts.NetCRIters != 0 {
				continue // D1GC has no net-based phases
			}
			for _, bal := range balances {
				opts := spec.Opts
				opts.Threads, opts.Balance = 1, bal
				res, err := d1.Color(ug, opts)
				if err != nil {
					t.Fatalf("d1 %s/%s/%v: %v", name, spec.Name, bal, err)
				}
				put(fmt.Sprintf("d1/%s/%s/%v", name, spec.Name, bal), res.Colors)
			}
		}
		for _, ranks := range []int{1, 2, 3, 7} {
			colors, st, err := dist.ColorD2GC(ug, ranks, 0)
			if err != nil {
				t.Fatalf("dist %s/r%d: %v", name, ranks, err)
			}
			key := fmt.Sprintf("dist/%s/r%d", name, ranks)
			put(key, colors)
			out[key] += fmt.Sprintf(" supersteps=%d messages=%d values=%d", st.Supersteps, st.Messages, st.Values)
		}
	}

	for name, b := range bgs {
		put("bgpc/"+name+"/seq", core.Sequential(b, nil).Colors)
		for _, spec := range core.NamedAlgorithms() {
			for _, bal := range balances {
				opts := spec.Opts
				opts.Threads, opts.Balance = 1, bal
				res, err := core.Color(b, opts)
				if err != nil {
					t.Fatalf("bgpc %s/%s/%v: %v", name, spec.Name, bal, err)
				}
				put(fmt.Sprintf("bgpc/%s/%s/%v", name, spec.Name, bal), res.Colors)
			}
		}
		for _, v := range []core.NetColorVariant{core.NetV1, core.NetV1Reverse} {
			opts, _ := core.ParseAlgorithm("N1-N2")
			opts.Threads, opts.NetColorVariant = 1, v
			res, err := core.Color(b, opts)
			if err != nil {
				t.Fatalf("bgpc %s/N1-N2/%v: %v", name, v, err)
			}
			put(fmt.Sprintf("bgpc/%s/N1-N2/%v", name, v), res.Colors)
		}
	}

	for seed := int64(bgpcSeeds); seed < bgpcSeedEnd; seed++ {
		c := bgpcCase(t, seed)
		got, _, err := RecolorBGPC(c.g2, c.base, c.d.DirtyBGPC())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		put(fmt.Sprintf("delta/bgpc/seed%d", seed), got)
	}
	for seed := int64(d2Seeds); seed < d2SeedEnd; seed++ {
		c := d2Case(t, seed)
		got, _, err := RecolorBGPC(c.ug2.Closed(), c.base, c.d.DirtyBGPC())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		put(fmt.Sprintf("delta/d2/seed%d", seed), got)
	}
	return out
}

func TestGoldenColorings(t *testing.T) {
	got := goldenColorings(t)
	if *updateGolden {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenFile)
		return
	}

	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, dig, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = dig
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: pinned but no longer produced", name)
		case g != w:
			t.Errorf("%s: coloring changed: got %s, want %s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: produced but not pinned (regenerate with -update-golden)", name)
		}
	}
}
