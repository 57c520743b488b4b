package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"bgpc/internal/core"
	"bgpc/internal/gen"
)

// smallConfig is a run short enough for a unit test.
func smallConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload:  workload,
		seed:      7,
		seconds:   0.4,
		trace:     trace,
		out:       t.TempDir(),
		threads:   2,
		setupReps: 1,
	}
}

func TestSameSeedSameInputsAndSchedule(t *testing.T) {
	digestOf := func(seed uint64) string {
		cfg := &config{workload: "serve-small", seed: seed, threads: 2}
		dg := newDigest(cfg.workload, seed)
		e, _, err := buildSmallEnv(cfg, dg)
		if err != nil {
			t.Fatal(err)
		}
		drain(e.srv)
		warm, _ := buildWarmChains(cfg)
		for _, ch := range warm {
			digestChain(dg, ch)
		}
		digestChain(dg, measuredChain(seed, 0))
		dg.schedule(poissonArrivals(newRand(seed, "serve-small/arrivals"), serveSmallRate, time.Second))
		return dg.sum()
	}
	a, b, c := digestOf(3), digestOf(3), digestOf(4)
	if a != b {
		t.Fatalf("same seed gave digests %s and %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 3 and 4 gave the same digest %s", a)
	}
	s1 := poissonArrivals(newRand(5, "x"), 100, time.Second)
	s2 := poissonArrivals(newRand(5, "x"), 100, time.Second)
	if !slices.Equal(s1, s2) || len(s1) == 0 {
		t.Fatalf("arrival schedules differ for one seed (%d vs %d arrivals)", len(s1), len(s2))
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range bj.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not have", w.Name)
		}
	}
	// Every workload, gated by BENCHMARK.json or not, prints the same
	// metric set.
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := run(smallConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d", name, trace, res.Correct, res.Attempted)
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
					continue
				}
				if got.Unit != units[m.Name] {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, units[m.Name])
				}
			}
		}
	}
}

func TestCorruptedColoringIsAFailure(t *testing.T) {
	g, err := gen.Preset("channel", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ref := refFromBipartite(g)
	colors := core.Sequential(g, nil).Colors
	if _, err := ref.check(colors); err != nil {
		t.Fatalf("a valid coloring was rejected: %v", err)
	}
	// Give a net's second vertex the color of its first.
	bad := slices.Clone(colors)
	net := ref.adj[ref.ptr[0]:ref.ptr[1]]
	bad[net[1]] = bad[net[0]]

	// A server that answers every request with the corrupted coloring.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"colors": bad, "num_colors": 1, "fingerprint": "00"})
	})
	cl := &client{h: h, name: "service.ServeHTTP"}
	p := &phase{}
	p.record(time.Millisecond, judge(cl.post(0, "/color", []byte("{}")), ref), time.Second)
	if p.failed != 1 || p.invalid != 1 {
		t.Fatalf("corrupted coloring counted failed=%d invalid=%d, want 1 and 1", p.failed, p.invalid)
	}
	r := newReport()
	r.count(p)
	res2, err := r.result(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Correct || res2.Failed != 1 {
		t.Fatalf("result line correct=%v failed=%d for a corrupted coloring", res2.Correct, res2.Failed)
	}

	// A coloring with an uncolored vertex, the wrong length or a color
	// no coloring of n vertices needs fails too, without allocating for
	// the color.
	for _, c := range [][]int32{
		colors[:len(colors)-1],
		append(slices.Clone(colors[:len(colors)-1]), -1),
		append(slices.Clone(colors[:len(colors)-1]), int32(len(colors))),
		append(slices.Clone(colors[:len(colors)-1]), math.MaxInt32),
	} {
		if _, err := ref.check(c); err == nil {
			t.Fatalf("check accepted a malformed coloring (length %d, last color %d)", len(c), c[len(c)-1])
		}
	}
}

func TestDeltaCopyMatchesService(t *testing.T) {
	// The benchmark's own copy of a mutated graph must be the graph the
	// service colors, or every delta would be judged against the wrong
	// graph.
	cfg := &config{seed: 1, threads: 2}
	ch := measuredChain(cfg.seed, 0)
	f, err := newFleet(cfg, nil, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	st := &layerStats{}
	cl := &client{h: f.rt, name: "router.ServeHTTP", st: st}
	p := &phase{}
	runChain(cl, ch, 0, p)
	if p.failed != 0 || p.attempted != int64(len(ch)) {
		t.Fatalf("chain: attempted %d failed %d (%s)", p.attempted, p.failed, p.firstErrMsg)
	}
	if st.deltas.Load() != fleetDeltasPerLink || st.deltaOwnerHits.Load() != fleetDeltasPerLink {
		t.Fatalf("one backend: %d of %d deltas found their base", st.deltaOwnerHits.Load(), st.deltas.Load())
	}
}

func TestFleetDeltaAppendsToWAL(t *testing.T) {
	// Every measured chain is new to the fleet, so the latency phase
	// writes full colorings and deltas to the backends' logs.
	warm, _ := buildWarmChains(&config{seed: 7})
	seen := map[string]bool{}
	for _, ch := range warm {
		seen[string(ch[0].body)] = true
	}
	for i := int64(0); i < 64; i++ {
		if b := string(measuredChain(7, i)[0].body); seen[b] {
			t.Fatalf("measured chain %d repeats an earlier chain", i)
		} else {
			seen[b] = true
		}
	}
	_, r, err := run(smallConfig(t, "fleet-delta", false))
	if err != nil {
		t.Fatal(err)
	}
	if r.walAppends == 0 {
		t.Fatal("no write-ahead log append in fleet-delta's latency phase")
	}
}
