package bench

import (
	"fmt"

	"bgpc/internal/core"
	"bgpc/internal/dist"
	"bgpc/internal/verify"
)

// AblationSchedule sweeps the dynamic-scheduling chunk size for the
// V-V-64D-style vertex-based algorithm on every workload, isolating
// the scheduling design choice the paper's V-V → V-V-64 step makes
// (DESIGN.md ablation index).
func AblationSchedule(cfg Config) (*Table, error) {
	ws, err := LoadWorkloads(cfg.scale(), nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation A",
		Title:  "Scheduling: dynamic chunk sweep (vertex-based, lazy queues)",
		Note:   fmt.Sprintf("threads = %d; geomean model speedups vs sequential and wall ms totals over all workloads", cfg.maxThreads()),
		Header: []string{"schedule", "model speedup", "wall ms (sum)"},
	}
	for _, chunk := range []int{1, 16, 64, 256} {
		name := fmt.Sprintf("dynamic,%d", chunk)
		var speedups []float64
		var wallSum float64
		for _, w := range ws {
			seq := RunBGPCSequential(w, nil)
			opts := core.Options{
				Threads: cfg.maxThreads(), Chunk: chunk, LazyQueues: true,
			}
			m, err := RunBGPCVariant(w, name, opts)
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, m.ModelSpeedup(seq.TotalWork))
			wallSum += float64(m.Wall.Microseconds()) / 1000
		}
		t.Rows = append(t.Rows, []string{name, f2(GeoMean(speedups)), f2(wallSum)})
	}
	return t, nil
}

// AblationD2Balance applies the B1/B2 balancing study to D2GC — the
// paper states the heuristics "can also be used for the D2GC problem"
// without reporting numbers; this table fills that gap.
func AblationD2Balance(cfg Config) (*Table, error) {
	ws, err := LoadWorkloads(cfg.scale(), nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation B",
		Title:  "Balancing heuristics on D2GC (V-N2, normalized to unbalanced, geomeans over symmetric workloads)",
		Note:   fmt.Sprintf("threads = %d", cfg.maxThreads()),
		Header: []string{"variant", "coloring time", "#color sets", "avg card", "std dev"},
	}
	type agg struct{ time, sets, avg, std []float64 }
	byBalance := map[core.Balance]*agg{
		core.BalanceNone: {}, core.BalanceB1: {}, core.BalanceB2: {},
	}
	for _, w := range ws {
		if !w.Symmetric {
			continue
		}
		g, err := w.Unipartite()
		if err != nil {
			return nil, err
		}
		var base Measurement
		for _, b := range []core.Balance{core.BalanceNone, core.BalanceB1, core.BalanceB2} {
			m, err := RunD2GC(g, w.Name, "V-N2", cfg.maxThreads(), b, false)
			if err != nil {
				return nil, err
			}
			if b == core.BalanceNone {
				base = m
			}
			a := byBalance[b]
			a.time = append(a.time, safeRatio(float64(m.Wall), float64(base.Wall)))
			a.sets = append(a.sets, safeRatio(float64(m.ColorStats.NumColors), float64(base.ColorStats.NumColors)))
			a.avg = append(a.avg, safeRatio(m.ColorStats.Avg, base.ColorStats.Avg))
			a.std = append(a.std, safeRatio(m.ColorStats.StdDev, base.ColorStats.StdDev))
		}
	}
	for _, b := range []core.Balance{core.BalanceNone, core.BalanceB1, core.BalanceB2} {
		a := byBalance[b]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("V-N2-%s", b),
			f2(GeoMean(a.time)), f2(GeoMean(a.sets)), f2(GeoMean(a.avg)), f2(GeoMean(a.std)),
		})
	}
	return t, nil
}

// AblationNetVariants extends Table I's net-coloring comparison from
// two matrices to the whole test-bed, also recording the final color
// counts each variant converges to.
func AblationNetVariants(cfg Config) (*Table, error) {
	ws, err := LoadWorkloads(cfg.scale(), nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation C",
		Title:  "Net-coloring variants on all workloads: remaining |Wnext| after iteration 1 and final colors",
		Note:   fmt.Sprintf("threads = %d; schedule N1-N2 with the variant swapped into iteration 1", cfg.maxThreads()),
		Header: []string{"matrix", "Alg6 rem", "Alg6rev rem", "Alg8 rem", "Alg6 colors", "Alg6rev colors", "Alg8 colors"},
	}
	variants := []core.NetColorVariant{core.NetV1, core.NetV1Reverse, core.NetTwoPass}
	for _, w := range ws {
		rem := make([]string, len(variants))
		cols := make([]string, len(variants))
		for i, variant := range variants {
			opts := core.Options{
				Threads: cfg.maxThreads(), Chunk: 64, LazyQueues: true,
				NetColorIters: 1, NetCRIters: 2, NetColorVariant: variant,
				CollectPerIteration: true,
			}
			m, err := RunBGPCVariant(w, variant.String(), opts)
			if err != nil {
				return nil, err
			}
			rem[i] = fmt.Sprintf("%d", m.Iters[0].Conflicts)
			cols[i] = fmt.Sprintf("%d", m.NumColors)
		}
		t.Rows = append(t.Rows, append(append([]string{w.Name}, rem...), cols...))
	}
	return t, nil
}

// AblationDistributed reports the distributed-framework simulation's
// supersteps and communication volume across rank counts — the metric
// family the distributed predecessors of the paper's algorithms
// report, for context on what the shared-memory reformulation avoids.
func AblationDistributed(cfg Config) (*Table, error) {
	ws, err := LoadWorkloads(cfg.scale(), []string{"copapers", "channel"})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation D",
		Title:  "Distributed-framework simulation: supersteps and boundary traffic vs ranks",
		Note:   "BSP simulation of the Bozdag et al. speculative framework; colors verified each run",
		Header: []string{"matrix", "ranks", "supersteps", "messages", "values", "colors"},
	}
	for _, w := range ws {
		for _, ranks := range []int{1, 2, 4, 8, 16} {
			colors, stats, err := dist.ColorBGPC(w.Graph, ranks, 0)
			if err != nil {
				return nil, err
			}
			if err := verify.BGPC(w.Graph, colors); err != nil {
				return nil, fmt.Errorf("bench: distributed run invalid on %s: %w", w.Name, err)
			}
			cs := verify.Stats(colors)
			t.Rows = append(t.Rows, []string{
				w.Name, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", stats.Supersteps),
				fmt.Sprintf("%d", stats.Messages), fmt.Sprintf("%d", stats.Values),
				fmt.Sprintf("%d", cs.NumColors),
			})
		}
	}
	return t, nil
}

// AblationRecoloring quantifies the iterated-greedy recoloring
// extension: colors before and after RecolorToConvergence for the two
// headline schedules, plus the pass counts. Recoloring can only ever
// reduce the count (tested as an invariant in internal/core).
func AblationRecoloring(cfg Config) (*Table, error) {
	ws, err := LoadWorkloads(cfg.scale(), nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation E",
		Title:  "Iterated-greedy recoloring after the parallel run (colors before → after)",
		Note:   fmt.Sprintf("threads = %d; up to 5 passes, stops when no longer improving", cfg.maxThreads()),
		Header: []string{"matrix", "N1-N2", "recolored", "passes", "V-V", "recolored", "passes"},
	}
	for _, w := range ws {
		row := []string{w.Name}
		for _, alg := range []string{"N1-N2", "V-V"} {
			opts, _ := core.ParseAlgorithm(alg)
			opts.Threads = cfg.maxThreads()
			res, err := core.Color(w.Graph, opts)
			if err != nil {
				return nil, err
			}
			compacted, count, rounds, err := core.RecolorToConvergence(w.Graph, res.Colors, 5)
			if err != nil {
				return nil, err
			}
			if err := verify.BGPC(w.Graph, compacted); err != nil {
				return nil, fmt.Errorf("bench: recolored coloring invalid on %s: %w", w.Name, err)
			}
			row = append(row, fmt.Sprintf("%d", res.NumColors), fmt.Sprintf("%d", count), fmt.Sprintf("%d", rounds))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
