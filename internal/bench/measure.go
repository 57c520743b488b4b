package bench

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"bgpc/internal/core"
	"bgpc/internal/d2"
	"bgpc/internal/graph"
	"bgpc/internal/obs"
	"bgpc/internal/verify"
)

// harnessObs is the observer the CLI attaches (SetObserver) so that
// every coloring run of every experiment emits trace events without
// threading an Observer through each experiment's call chain.
var harnessObs atomic.Pointer[obs.Observer]

// SetObserver installs (or, with nil, removes) the harness-wide
// Observer. Each run re-labels it with the run's algorithm name.
func SetObserver(o *obs.Observer) { harnessObs.Store(o) }

// attachObs stamps the harness Observer into opts unless the caller
// already supplied one.
func attachObs(opts *core.Options, algo string) {
	if opts.Obs != nil {
		return
	}
	if o := harnessObs.Load(); o.Enabled() {
		opts.Obs = o.WithAlgo(algo)
	}
}

// Measurement is one (workload, algorithm, threads) data point.
type Measurement struct {
	Workload  string
	Algorithm string
	Threads   int

	Wall         time.Duration
	ColoringTime time.Duration
	ConflictTime time.Duration
	NumColors    int
	Iterations   int
	TotalWork    int64
	CriticalWork int64
	Iters        []core.IterStats
	ColorStats   verify.ColorStats
}

// ModelSpeedup returns the work-model speedup of m against a sequential
// baseline's total work: T₁ / T_p where T_p is the per-iteration sum of
// busiest-thread work.
func (m Measurement) ModelSpeedup(seqWork int64) float64 {
	if m.CriticalWork == 0 {
		return 0
	}
	return float64(seqWork) / float64(m.CriticalWork)
}

// WallSpeedup returns the wall-clock speedup against a baseline
// duration. On the single-core container this mostly reflects work
// ratios, not parallel scaling; the tables report both.
func (m Measurement) WallSpeedup(base time.Duration) float64 {
	if m.Wall == 0 {
		return 0
	}
	return float64(base) / float64(m.Wall)
}

// RunBGPC colors w's graph with the named paper algorithm and verifies
// the result.
func RunBGPC(w *Workload, algorithm string, threads int, ord []int32, balance core.Balance, perIter bool) (Measurement, error) {
	opts, err := core.ParseAlgorithm(algorithm)
	if err != nil {
		return Measurement{}, err
	}
	opts.Threads = threads
	opts.Order = ord
	opts.Balance = balance
	opts.CollectPerIteration = perIter
	attachObs(&opts, algorithm)
	res, err := core.Color(w.Graph, opts)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s on %s: %w", algorithm, w.Name, err)
	}
	if err := verify.BGPC(w.Graph, res.Colors); err != nil {
		return Measurement{}, fmt.Errorf("bench: %s on %s produced an invalid coloring: %w", algorithm, w.Name, err)
	}
	return fromResult(w.Name, algorithm, threads, res), nil
}

// RunBGPCVariant is RunBGPC with full control of Options (used by the
// Table I net-variant comparison).
func RunBGPCVariant(w *Workload, label string, opts core.Options) (Measurement, error) {
	attachObs(&opts, label)
	res, err := core.Color(w.Graph, opts)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s on %s: %w", label, w.Name, err)
	}
	if err := verify.BGPC(w.Graph, res.Colors); err != nil {
		return Measurement{}, fmt.Errorf("bench: %s on %s produced an invalid coloring: %w", label, w.Name, err)
	}
	return fromResult(w.Name, label, opts.Threads, res), nil
}

// RunBGPCSequential runs the sequential greedy baseline.
func RunBGPCSequential(w *Workload, ord []int32) Measurement {
	res := core.Sequential(w.Graph, ord)
	return fromResult(w.Name, "seq", 1, res)
}

// RunD2GC colors the workload's unipartite graph with the named
// algorithm and verifies the result.
func RunD2GC(g *graph.Graph, workload, algorithm string, threads int, balance core.Balance, perIter bool) (Measurement, error) {
	opts, err := core.ParseAlgorithm(algorithm)
	if err != nil {
		return Measurement{}, err
	}
	opts.Threads = threads
	opts.Balance = balance
	opts.CollectPerIteration = perIter
	attachObs(&opts, "d2/"+algorithm)
	res, err := d2.Color(g, opts)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: d2 %s on %s: %w", algorithm, workload, err)
	}
	if err := verify.D2GC(g, res.Colors); err != nil {
		return Measurement{}, fmt.Errorf("bench: d2 %s on %s produced an invalid coloring: %w", algorithm, workload, err)
	}
	return fromResult(workload, algorithm, threads, res), nil
}

// RunD2GCSequential runs the sequential D2GC baseline.
func RunD2GCSequential(g *graph.Graph, workload string) Measurement {
	res := d2.Sequential(g, nil)
	return fromResult(workload, "seq", 1, res)
}

func fromResult(workload, algorithm string, threads int, res *core.Result) Measurement {
	return Measurement{
		Workload:     workload,
		Algorithm:    algorithm,
		Threads:      threads,
		Wall:         res.Time,
		ColoringTime: res.ColoringTime,
		ConflictTime: res.ConflictTime,
		NumColors:    res.NumColors,
		Iterations:   res.Iterations,
		TotalWork:    res.TotalWork,
		CriticalWork: res.CriticalWork,
		Iters:        res.Iters,
		ColorStats:   verify.Stats(res.Colors),
	}
}

// GeoMean returns the geometric mean of xs (paper tables aggregate with
// geometric means). Non-positive entries are rejected with NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
