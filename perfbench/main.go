// Command perfbench is the repository's benchmark: one process that
// drives three workloads through the public functions of every layer —
// generators, MatrixMarket parser, CSR build, BGPC/D2GC kernels,
// verifier, delta repair, write-ahead log, the coloring service and the
// fleet router — with no sockets, no subprocesses and no network.
//
//	go build -o perfbench . && ./perfbench --workload serve-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every layer call and the metrics are the
// per-layer ones. Every coloring returned is checked against the
// benchmark's own copy of the graph; an invalid one makes the command
// exit 1. See README.md for the workloads and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below
// are the benchmark's contract and must match BENCHMARK.json.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"colors_ratio", "ratio"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_heap_mb", "MB"},
}

var perLayerMetrics = []metricSpec{
	{"core.ns_per_nnz", "ns"},
	{"core.color_phase_ms", "ms"},
	{"core.conflict_phase_ms", "ms"},
	{"core.allocs_per_call", "count"},
	{"core.iterations", "count"},
	{"core.first_iter_conflict_ratio", "ratio"},
	{"core.work_speedup", "x"},
	{"core.wall_speedup", "x"},
	{"par.for_overhead_ns", "ns"},
	{"d2.ns_per_nnz", "ns"},
	{"d2.iterations", "count"},
	{"d2.allocs_per_call", "count"},
	{"verify.ns_per_nnz", "ns"},
	{"mtx.parse_ns_per_nnz", "ns"},
	{"bipartite.build_ns_per_nnz", "ns"},
	{"bipartite.fingerprint_ns_per_nnz", "ns"},
	{"service.handler_p50_us", "us"},
	{"service.self_us", "us"},
	{"service.allocs_per_req", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.admitted_ratio", "ratio"},
	{"delta.apply_us", "us"},
	{"delta.dirty_ratio", "ratio"},
	{"delta.recolor_us", "us"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.bytes_per_append", "B"},
	{"router.proxy_overhead_us", "us"},
	{"router.delta_owner_hit_ratio", "ratio"},
	{"router.first_try_ratio", "ratio"},
	{"harness.sched_lag_ms", "ms"},
}

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	out       string // build-output directory for WALs and span files
	threads   int
	setupReps int
}

// dur is frac of the measured time.
func (c *config) dur(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*config, *tracer, *report) error{
	"batch-kernel": runBatchKernel,
	"serve-small":  runServeSmall,
	"fleet-delta":  runFleetDelta,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := &config{threads: runtime.NumCPU(), setupReps: 5}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "batch-kernel, serve-small or fleet-delta")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs and schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for WALs and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	res, r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result line.
func run(cfg *config) (*result, *report, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	r := newReport()
	if err := drive(cfg, tr, r); err != nil {
		return nil, nil, err
	}
	specs, values := endToEndMetrics, r.e2e
	if cfg.trace {
		specs, values = perLayerMetrics, r.layer
		path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, nil, err
		}
		r.linef("spans: %d written to %s", len(tr.snapshot()), path)
	}
	res, err := r.result(specs, values)
	return res, r, err
}

// result assembles the result line: correct only if every coloring
// verified.
func (r *report) result(specs []metricSpec, values map[string]float64) (*result, error) {
	res := &result{Correct: r.invalid == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if !res.Correct {
		r.linef("FAILED: %d colorings did not verify (first: %s)", r.invalid, r.firstErr)
	}
	return res, nil
}

// report gathers a run's human-readable lines and its metrics.
type report struct {
	lines                      []string
	e2e, layer                 map[string]float64
	attempted, failed, invalid int64
	firstErr                   string
	// walAppends is the write-ahead log records appended during the
	// latency phase.
	walAppends int64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// count adds a phase's operations to the run's totals.
func (r *report) count(ps ...*phase) {
	for _, p := range ps {
		r.attempted += p.attempted
		r.failed += p.failed
		r.invalid += p.invalid
		if r.firstErr == "" && p.firstErrMsg != "" {
			r.firstErr = p.firstErrMsg
		}
	}
}

// endToEnd fills the end-to-end metrics. Throughput comes from the
// closed loop (capacity) and is printed only. Every reported metric
// comes from the latency phase: for the serving workloads that is the
// open loop, whose offered work is fixed by the seed, so a faster
// program does not also do more work (a longer write-ahead log, more
// cache churn) in the phase it is judged on.
//
// latency_p50_ms is the geometric mean over operation classes of each
// class's median (see classQuantile).
func (r *report) endToEnd(setups []time.Duration, callers int, capacity, latency *phase, slo time.Duration) {
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	p := latency
	r.e2e["setup_s"] = med(setupS)
	r.e2e["latency_p50_ms"] = ms(p.classQuantile(0.5))
	r.e2e["slo_ok_ratio"] = float64(p.sloOK) / float64(p.attempted)
	r.e2e["colors_ratio"] = p.colorsSum / float64(max(p.colorsN, 1))
	r.e2e["allocs_per_op"] = float64(p.mallocs) / float64(p.attempted)
	r.e2e["alloc_bytes_per_op"] = float64(p.allocBytes) / float64(p.attempted)
	r.e2e["peak_heap_mb"] = p.highHeap() / (1 << 20)
	r.walAppends = p.walAppends
	r.linef("capacity: %d ops in %.2fs closed loop with %d callers; throughput_ops_s %.6g 1/s (printed, not reported)",
		capacity.attempted, capacity.wall.Seconds(), callers, capacity.throughput())
	lat := sortedCopy(p.lat)
	tail := tailQuantile(len(lat))
	by := p.byClass()
	r.linef("latency: %d samples in %d classes, slo limit %v; pooled p50 %.4g ms, p%.1f %.4g ms with %d samples beyond it (printed, not reported)",
		len(lat), len(by), slo, ms(quantile(lat, 0.5)), 100*tail, ms(quantile(lat, tail)), len(lat)-int(math.Ceil(tail*float64(len(lat)))))
	var classes []int
	for c := range by {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		s := sortedCopy(by[c])
		q := tailQuantile(len(s))
		r.linef("  class %d: %d samples, p50 %.4g ms, p%.1f %.4g ms", c, len(s), ms(quantile(s, 0.5)), 100*q, ms(quantile(s, q)))
	}
	if capacity.walAppends+p.walAppends > 0 {
		r.linef("write-ahead log appends: %d in the latency phase, %d in the capacity phase", p.walAppends, capacity.walAppends)
	}
	attempted, failed := p.attempted, p.failed
	if capacity != p {
		attempted += capacity.attempted
		failed += capacity.failed
	}
	r.linef("error_ratio %.4f (%d of %d operations without a verified coloring)", float64(failed)/float64(attempted), failed, attempted)
	for _, m := range endToEndMetrics {
		r.linef("%-22s %14.6g %s", m.name, r.e2e[m.name], m.unit)
	}
}
