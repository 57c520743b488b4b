// Command bgpcbench regenerates the paper's evaluation artifacts —
// Tables I–VI and Figures 1–3 — on the synthetic workload presets.
//
// Usage:
//
//	bgpcbench [-experiment all|table1|…|figure3|trajectory] [-scale S]
//	          [-threads 2,4,8,16] [-csv]
//	          [-benchjson out.json] [-benchreps N] [-seed S]
//	          [-trace trace.jsonl] [-cpuprofile cpu.out]
//
// With -csv the tables are emitted as CSV blocks (one per table),
// convenient for external plotting of the figure series.
//
// Observability: -trace writes one JSON-lines event per phase per
// speculative iteration of every coloring run (schema in
// EXPERIMENTS.md), and -cpuprofile records a CPU profile; every phase
// is its own function, so `go tool pprof -focus` splits it by phase.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"bgpc/internal/bench"
	"bgpc/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgpcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bgpcbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all",
		"experiment to run: all, "+strings.Join(bench.ExperimentNames(), ", "))
	scale := fs.Float64("scale", 1.0,
		"workload scale factor (1.0 = default benchmark size, ≈1/40 of the paper's matrices)")
	threads := fs.String("threads", "2,4,8,16", "comma-separated thread ladder")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := fs.Bool("json", false, "emit one JSON object per table")
	outDir := fs.String("outdir", "", "write the complete artifact set (txt/csv/json tables + SVG figures) into this directory instead of stdout")
	benchJSON := fs.String("benchjson", "", "run the named-variant benchmark sweep and write a machine-readable artifact (variant → ns/op, colors, conflicts) to this file")
	benchReps := fs.Int("benchreps", 3, "repetitions per -benchjson cell (minimum wall time wins)")
	benchSeed := fs.Uint64("seed", 0, "workload seed stamped into the -benchjson artifact (0 = the presets' baked deterministic seeds)")
	timeout := fs.Duration("timeout", 0, "abort the whole invocation if it runs longer than this")
	traceFile := fs.String("trace", "", "write a JSON-lines trace event per phase of every coloring run to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ladder, err := parseThreads(*threads)
	if err != nil {
		return err
	}
	cfg := bench.Config{Scale: *scale, Threads: ladder}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		sink := obs.NewJSONL(bw)
		bench.SetObserver(obs.New(sink))
		defer func() {
			bench.SetObserver(nil)
			bw.Flush()
			f.Close()
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	work := func() error {
		if *benchJSON != "" {
			f, err := os.Create(*benchJSON)
			if err != nil {
				return err
			}
			// Stamp provenance so trajectory entries are attributable:
			// the workload seed and the tree that built the binary.
			meta := bench.ArtifactMeta{Seed: *benchSeed, Git: bench.GitDescribe()}
			if err := bench.WriteBenchJSON(cfg, *benchReps, meta, f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote benchmark artifact to %s\n", *benchJSON)
			return nil
		}
		if *outDir != "" {
			if err := bench.WriteArtifacts(cfg, *outDir); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote all experiment artifacts to %s\n", *outDir)
			return nil
		}

		names := bench.ExperimentNames()
		if *experiment != "all" {
			names = []string{*experiment}
		}
		for _, name := range names {
			tables, err := bench.Run(name, cfg)
			if err != nil {
				return err
			}
			for _, t := range tables {
				if *jsonOut {
					if err := t.JSON(stdout); err != nil {
						return err
					}
					continue
				}
				if *csv {
					fmt.Fprintf(stdout, "# %s: %s\n", t.ID, t.Title)
					if err := t.CSV(stdout); err != nil {
						return err
					}
					fmt.Fprintln(stdout)
				} else if err := t.Render(stdout); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if *timeout <= 0 {
		return work()
	}
	// A best-effort whole-invocation deadline: the experiments have no
	// cancellation points of their own (they must measure undisturbed),
	// so on expiry we abandon the worker goroutine and exit nonzero —
	// the process is about to die anyway.
	done := make(chan error, 1)
	go func() { done <- work() }()
	select {
	case err := <-done:
		return err
	case <-time.After(*timeout):
		return fmt.Errorf("timed out after %s", *timeout)
	}
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
