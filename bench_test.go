package bgpc

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section, each delegating to the experiment
// builders in internal/bench, plus per-algorithm micro-benchmarks.
// The cmd/bgpcbench binary renders the same experiments as full tables;
// EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"io"
	"testing"

	"bgpc/internal/bench"
	"bgpc/internal/core"
)

// benchCfg keeps `go test -bench=.` tractable on small machines while
// still exercising every phase; cmd/bgpcbench defaults to Scale: 1.
var benchCfg = bench.Config{Scale: 0.1, Threads: []int{2, 4, 8, 16}}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := bench.Run(name, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable1NetVariantConflicts(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkTable2WorkloadBaselines(b *testing.B)    { runExperiment(b, "table2") }
func BenchmarkTable3SpeedupsNatural(b *testing.B)      { runExperiment(b, "table3") }
func BenchmarkTable4SpeedupsSmallestLast(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkTable5D2GCSpeedups(b *testing.B)         { runExperiment(b, "table5") }
func BenchmarkTable6Balancing(b *testing.B)            { runExperiment(b, "table6") }
func BenchmarkFigure1IterationBreakdown(b *testing.B)  { runExperiment(b, "figure1") }
func BenchmarkFigure2AllMatrices(b *testing.B)         { runExperiment(b, "figure2") }
func BenchmarkFigure3Cardinalities(b *testing.B)       { runExperiment(b, "figure3") }

// Per-algorithm BGPC benchmarks on the power-law workload where the
// net-based phases matter most.
func BenchmarkBGPC(b *testing.B) {
	g, err := Preset("copapers", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Sequential(g, nil)
		}
	})
	for _, spec := range Algorithms() {
		opts := spec.Opts
		opts.Threads = 4
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Color(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Per-algorithm D2GC benchmarks on the mesh workload.
func BenchmarkD2GC(b *testing.B) {
	bg, err := Preset("channel", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := UndirectedFromBipartite(bg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SequentialD2(g, nil)
		}
	})
	for _, name := range []string{"V-V-64D", "V-N1", "V-N2", "N1-N2"} {
		opts, err := Algorithm(name)
		if err != nil {
			b.Fatal(err)
		}
		opts.Threads = 4
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ColorD2(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Balancing ablation: the costless heuristics must stay costless.
func BenchmarkBalancingOverhead(b *testing.B) {
	g, err := Preset("movielens", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		balance core.Balance
	}{
		{"U", core.BalanceNone},
		{"B1", core.BalanceB1},
		{"B2", core.BalanceB2},
	} {
		opts, _ := Algorithm("V-N2")
		opts.Threads = 4
		opts.Balance = tc.balance
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Color(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ordering ablation (Table II's sequential column pair).
func BenchmarkOrderings(b *testing.B) {
	g, err := Preset("copapers", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	sl := SmallestLast(g)
	b.Run("natural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Sequential(g, nil)
		}
	})
	b.Run("smallest-last", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Sequential(g, sl)
		}
	})
	b.Run("smallest-last-construction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SmallestLast(g)
		}
	})
}

// Ablation experiments (DESIGN.md §4): scheduling, D2GC balancing, and
// the net-variant sweep across the whole test-bed.
func BenchmarkAblationSchedule(b *testing.B)    { runExperiment(b, "ablation-sched") }
func BenchmarkAblationD2Balance(b *testing.B)   { runExperiment(b, "ablation-d2balance") }
func BenchmarkAblationNetVariants(b *testing.B) { runExperiment(b, "ablation-netvariants") }
