// Command colorize colors a sparse matrix — a MatrixMarket file or a
// built-in synthetic preset — with any of the paper's BGPC or D2GC
// algorithms, verifies the result, and prints coloring statistics.
//
// Usage:
//
//	colorize -mtx path/to/matrix.mtx -algorithm N1-N2 -threads 16
//	colorize -preset copapers -scale 0.5 -algorithm V-N2 -balance B2
//	colorize -preset channel -d2 -algorithm V-N1
//	colorize -preset channel -scale 0.1 -timeline
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"bgpc"
	"bgpc/internal/failpoint"
)

func main() {
	mtxPath := flag.String("mtx", "", "MatrixMarket file to color (rows = nets, cols = colored vertices)")
	preset := flag.String("preset", "", "synthetic preset instead of -mtx: "+strings.Join(bgpc.PresetNames(), ", "))
	scale := flag.Float64("scale", 1.0, "preset scale factor")
	algorithm := flag.String("algorithm", "N1-N2", "algorithm: V-V, V-V-64, V-V-64D, V-Ninf, V-N1, V-N2, N1-N2, N2-N2, or seq")
	threads := flag.Int("threads", 4, "worker threads")
	ordering := flag.String("order", "natural", "vertex order: natural, random, largest-first, dynamic-largest-first, smallest-last, incidence-degree")
	balance := flag.String("balance", "U", "balancing heuristic: U, B1, B2")
	timeout := flag.Duration("timeout", 0, "deadline for the parallel run (BGPC and -d2); on expiry the partial coloring is completed sequentially and reported as degraded")
	d2Mode := flag.Bool("d2", false, "distance-2 color the matrix (must be square, structurally symmetric)")
	d1Mode := flag.Bool("d1", false, "distance-1 color the matrix (square symmetric; V-V* algorithms only)")
	perIter := flag.Bool("iters", false, "print per-iteration phase breakdown")
	timeline := flag.Bool("timeline", false, "record the run's telemetry timeline (spans + per-round events, as the bgpcd daemon would) and print it; context-aware runs only (BGPC and -d2)")
	recolor := flag.Int("recolor", 0, "BGPC only: run up to N iterated-greedy recoloring passes to compact the colors")
	colorsOut := flag.String("o", "", "write the final coloring to this file (one color id per line, vertex order)")
	traceFile := flag.String("trace", "", "write a JSON-lines trace event per phase per iteration to this file (parallel algorithms only)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	failpoints := flag.String("failpoints", "", "arm failpoints for fault-injection runs, e.g. 'core.iterate=delay:10ms' (applied after $"+failpoint.EnvVar+")")
	maxRows := flag.Int("max-rows", 0, "reject -mtx files declaring more rows than this (0 = library default)")
	maxCols := flag.Int("max-cols", 0, "reject -mtx files declaring more columns than this (0 = library default)")
	maxNNZ := flag.Int64("max-nnz", 0, "reject -mtx files declaring more nonzeros than this (0 = library default)")
	maxLineBytes := flag.Int("max-line-bytes", 0, "reject -mtx lines longer than this many bytes (0 = library default)")
	flag.Parse()

	if err := failpoint.ArmFromEnv(); err != nil {
		fatal(err)
	}
	if *failpoints != "" {
		if err := failpoint.ArmFromSpec(*failpoints); err != nil {
			fatal(err)
		}
	}

	var observer *bgpc.Observer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(f)
		observer = bgpc.NewObserver(bgpc.NewJSONLTrace(bw)).WithAlgo(*algorithm)
		defer func() {
			bw.Flush()
			f.Close()
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	g, name, err := load(*mtxPath, *preset, *scale, bgpc.ParseLimits{
		MaxRows:      *maxRows,
		MaxCols:      *maxCols,
		MaxNNZ:       *maxNNZ,
		MaxLineBytes: *maxLineBytes,
	})
	if err != nil {
		fatal(err)
	}
	stats := g.ComputeStats()
	fmt.Printf("matrix %s: %d rows (nets), %d cols (vertices), %d nnz, max net degree %d (color lower bound)\n",
		name, stats.Rows, stats.Cols, stats.NNZ, stats.MaxNetDeg)

	bal, err := parseBalance(*balance)
	if err != nil {
		fatal(err)
	}
	ord, err := makeOrder(g, *ordering)
	if err != nil {
		fatal(err)
	}

	// -timeout arms a context deadline on the cancellation-aware runs
	// (BGPC and -d2). On expiry the run returns its repaired partial
	// coloring; degrade() completes it sequentially so the tool still
	// emits a full valid coloring, clearly marked.
	ctx := context.Background()
	if *timeout > 0 {
		var cancelCtx context.CancelFunc
		ctx, cancelCtx = context.WithTimeout(ctx, *timeout)
		defer cancelCtx()
	}
	// -timeline rides the same context plumbing the daemon uses: the
	// runners see the Recorder via ctx and hand it their phase events,
	// whether or not a -trace observer is attached.
	var rec *bgpc.Recorder
	if *timeline {
		rec = bgpc.NewRecorder(bgpc.NewRequestID(), 0, 0)
		rec.Annotate("variant", *algorithm)
		ctx = bgpc.ContextWithRecorder(ctx, rec)
	}
	degraded := false
	degrade := func(res *bgpc.Result, err error, finish func([]int32) int) *bgpc.Result {
		var ce *bgpc.CancelError
		if !errors.As(err, &ce) {
			fatal(err)
		}
		finished := finish(res.Colors)
		fmt.Printf("DEGRADED: deadline %v expired in iteration %d (%d colored in parallel, %d finished sequentially)\n",
			*timeout, ce.Iteration, ce.Colored, finished)
		degraded = true
		return res
	}

	var res *bgpc.Result
	start := time.Now()
	switch {
	case *d1Mode:
		ug, err := bgpc.UndirectedFromBipartite(g)
		if err != nil {
			fatal(err)
		}
		if strings.EqualFold(*algorithm, "seq") {
			res = bgpc.SequentialD1(ug, ord)
		} else {
			opts, err := bgpc.Algorithm(*algorithm)
			if err != nil {
				fatal(err)
			}
			if opts.NetColorIters != 0 || opts.NetCRIters != 0 {
				fatal(fmt.Errorf("algorithm %s uses net-based phases, which are only defined for BGPC and -d2; use V-V, V-V-64 or V-V-64D", *algorithm))
			}
			opts.Threads = *threads
			opts.Order = ord
			opts.Balance = bal
			opts.CollectPerIteration = *perIter
			opts.Obs = observer
			if res, err = bgpc.ColorD1(ug, opts); err != nil {
				fatal(err)
			}
		}
		if err := bgpc.VerifyD1(ug, res.Colors); err != nil {
			fatal(fmt.Errorf("result failed validation: %w", err))
		}
	case *d2Mode:
		ug, err := bgpc.UndirectedFromBipartite(g)
		if err != nil {
			fatal(err)
		}
		if strings.EqualFold(*algorithm, "seq") {
			res = bgpc.SequentialD2(ug, ord)
		} else {
			opts, err := bgpc.Algorithm(*algorithm)
			if err != nil {
				fatal(err)
			}
			opts.Threads = *threads
			opts.Order = ord
			opts.Balance = bal
			opts.CollectPerIteration = *perIter
			opts.Obs = observer
			if res, err = bgpc.ColorD2Context(ctx, ug, opts); err != nil {
				res = degrade(res, err, func(c []int32) int { return bgpc.FinishSequentialD2(ug, c) })
			}
		}
		if err := bgpc.VerifyD2(ug, res.Colors); err != nil {
			fatal(fmt.Errorf("result failed validation: %w", err))
		}
	default:
		if strings.EqualFold(*algorithm, "seq") {
			res = bgpc.Sequential(g, ord)
		} else {
			opts, err := bgpc.Algorithm(*algorithm)
			if err != nil {
				fatal(err)
			}
			opts.Threads = *threads
			opts.Order = ord
			opts.Balance = bal
			opts.CollectPerIteration = *perIter
			opts.Obs = observer
			if res, err = bgpc.ColorContext(ctx, g, opts); err != nil {
				res = degrade(res, err, func(c []int32) int { return bgpc.FinishSequential(g, c) })
			}
		}
		if err := bgpc.VerifyBGPC(g, res.Colors); err != nil {
			fatal(fmt.Errorf("result failed validation: %w", err))
		}
	}
	elapsed := time.Since(start)

	if *recolor > 0 && !*d1Mode && !*d2Mode {
		compacted, count, rounds, err := bgpc.RecolorToConvergence(g, res.Colors, *recolor)
		if err != nil {
			fatal(err)
		}
		if err := bgpc.VerifyBGPC(g, compacted); err != nil {
			fatal(fmt.Errorf("recolored result failed validation: %w", err))
		}
		fmt.Printf("recolor: %d -> %d colors in %d pass(es)\n", res.NumColors, count, rounds)
		res.Colors = compacted
	}

	if *colorsOut != "" {
		if err := writeColors(*colorsOut, res.Colors); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote coloring to %s\n", *colorsOut)
	}

	cs := bgpc.Stats(res.Colors)
	validity := "VALID"
	if degraded {
		validity = "VALID (degraded: sequential completion after deadline)"
	}
	fmt.Printf("algorithm %s, %d threads, order %s, balance %s: %s\n", *algorithm, *threads, *ordering, *balance, validity)
	fmt.Printf("  colors: %d (max id %d), iterations: %d\n", cs.NumColors, cs.MaxColor, res.Iterations)
	fmt.Printf("  time: %.2f ms total (%.2f coloring, %.2f conflict removal; %.2f incl. verify)\n",
		msf(res.Time), msf(res.ColoringTime), msf(res.ConflictTime), msf(elapsed))
	fmt.Printf("  work: %d cells total, %d on the critical path\n", res.TotalWork, res.CriticalWork)
	fmt.Printf("  color sets: avg %.1f, stddev %.1f, min %d, max %d\n", cs.Avg, cs.StdDev, cs.MinSet, cs.MaxSet)
	if *perIter {
		for i, it := range res.Iters {
			kind := func(net bool) string {
				if net {
					return "net"
				}
				return "vtx"
			}
			fmt.Printf("  iter %d: |W|=%d color[%s]=%.2fms confl[%s]=%.2fms remaining=%d\n",
				i+1, it.QueueLen, kind(it.NetColoring), msf(it.ColoringTime),
				kind(it.NetCR), msf(it.ConflictTime), it.Conflicts)
		}
	}
	if *timeline {
		printTimeline(rec.Snapshot())
	}
}

// printTimeline renders a run's telemetry timeline — the same data the
// daemon serves at /debug/requests/{id}, for a single CLI run.
func printTimeline(t bgpc.Timeline) {
	fmt.Printf("timeline %s:\n", t.ID)
	keys := make([]string, 0, len(t.Attrs))
	for k := range t.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  attr %s=%s\n", k, t.Attrs[k])
	}
	for _, sp := range t.Spans {
		fmt.Printf("  span %-8s +%.2fms %.2fms\n", sp.Name,
			float64(sp.StartNS)/1e6, float64(sp.DurNS)/1e6)
	}
	if len(t.Iters) == 0 {
		fmt.Println("  (no per-round events: sequential or non-context run)")
	}
	for _, it := range t.Iters {
		line := fmt.Sprintf("  round %d %s[%s] %.2fms items=%d colors=%d",
			it.Round, it.Phase, it.Kind, float64(it.WallNS)/1e6, it.Items, it.Colors)
		if it.Phase == "conflict" {
			line += fmt.Sprintf(" conflicts=%d", it.Conflicts)
		}
		fmt.Printf("%s dispatches=%d\n", line, it.Dispatches)
	}
	if t.DroppedSpans > 0 || t.DroppedIters > 0 {
		fmt.Printf("  dropped: %d spans, %d events\n", t.DroppedSpans, t.DroppedIters)
	}
}

func load(mtxPath, preset string, scale float64, lim bgpc.ParseLimits) (*bgpc.Bipartite, string, error) {
	switch {
	case mtxPath != "" && preset != "":
		return nil, "", fmt.Errorf("give either -mtx or -preset, not both")
	case mtxPath != "":
		g, err := bgpc.ReadMatrixMarketFileLimited(mtxPath, lim)
		return g, mtxPath, err
	case preset != "":
		g, err := bgpc.Preset(preset, scale)
		return g, preset, err
	default:
		return nil, "", fmt.Errorf("give -mtx FILE or -preset NAME (presets: %s)", strings.Join(bgpc.PresetNames(), ", "))
	}
}

func parseBalance(s string) (bgpc.Balance, error) {
	switch strings.ToUpper(s) {
	case "U", "", "NONE":
		return bgpc.BalanceNone, nil
	case "B1":
		return bgpc.BalanceB1, nil
	case "B2":
		return bgpc.BalanceB2, nil
	default:
		return bgpc.BalanceNone, fmt.Errorf("unknown balance %q (want U, B1, or B2)", s)
	}
}

func makeOrder(g *bgpc.Bipartite, name string) ([]int32, error) {
	switch strings.ToLower(name) {
	case "natural", "":
		return nil, nil
	case "random":
		return bgpc.RandomOrder(g.NumVertices(), 1), nil
	case "largest-first", "lf":
		return bgpc.LargestFirst(g), nil
	case "smallest-last", "sl":
		return bgpc.SmallestLast(g), nil
	case "incidence-degree", "id":
		return bgpc.IncidenceDegree(g), nil
	case "dynamic-largest-first", "dlf":
		return bgpc.DynamicLargestFirst(g), nil
	default:
		return nil, fmt.Errorf("unknown order %q", name)
	}
}

func writeColors(path string, colors []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, c := range colors {
		fmt.Fprintln(w, c)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func msf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "colorize:", err)
	os.Exit(1)
}
