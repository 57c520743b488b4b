package main

import (
	"context"
	"fmt"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/d2"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
)

// batchPresets are the scale-1 graphs batch-kernel colors: two skewed
// (copapers, movielens) and two regular (channel, nlpkkt).
var batchPresets = []string{"copapers", "movielens", "channel", "nlpkkt"}

// batchVariants are the paper's named BGPC schedules batch-kernel runs.
var batchVariants = []string{"N1-N2", "V-V-64D"}

type jobKind int

const (
	kindBGPC jobKind = iota
	kindD2
	kindSeq
)

// spanNames names each kind's span after the function it calls.
var spanNames = [...]string{kindBGPC: "core.ColorCtx", kindD2: "d2.ColorCtx", kindSeq: "core.Sequential"}

// kernelJob is one coloring in batch-kernel's list.
type kernelJob struct {
	name string
	kind jobKind
	g    *bipartite.Graph
	ug   *graph.Graph
	opts core.Options
	// ref is the benchmark's copy the coloring is checked against (the
	// distance-2 view for D2GC).
	ref *refGraph
	nnz int64
}

// batchKernelSlo is the per-graph latency limit of slo_ok_ratio: about
// 3× the tail of the slowest job (movielens V-V-64D, p87 157 ms, p99
// near 180 ms on a 2-core x86-64 VM).
const batchKernelSlo = 500 * time.Millisecond

// buildKernelJobs generates the presets and the job list: every preset
// with every variant, channel with D2GC N1-N2, and core.Sequential on
// every preset.
func buildKernelJobs(threads int) ([]*kernelJob, []sample, error) {
	var jobs, seq []*kernelJob
	var samples []sample
	for _, name := range batchPresets {
		g, err := gen.Preset(name, 1)
		if err != nil {
			return nil, nil, err
		}
		ref := refFromBipartite(g)
		samples = append(samples, sample{ref: ref, symmetric: g.IsStructurallySymmetric()})
		for _, v := range batchVariants {
			opts, err := core.ParseAlgorithm(v)
			if err != nil {
				return nil, nil, err
			}
			opts.Threads = threads
			opts.CollectPerIteration = true
			jobs = append(jobs, &kernelJob{name: name + "/" + v, kind: kindBGPC, g: g, opts: opts, ref: ref, nnz: g.NumEdges()})
		}
		seq = append(seq, &kernelJob{name: name + "/seq", kind: kindSeq, g: g, ref: ref, nnz: g.NumEdges()})
		if name == "channel" {
			ug, err := graph.FromBipartite(g)
			if err != nil {
				return nil, nil, err
			}
			opts, err := core.ParseAlgorithm("N1-N2")
			if err != nil {
				return nil, nil, err
			}
			opts.Threads = threads
			jobs = append(jobs, &kernelJob{name: name + "/d2-N1-N2", kind: kindD2, ug: ug, opts: opts, ref: ref.closed(), nnz: g.NumEdges()})
		}
	}
	return append(jobs, seq...), samples, nil
}

// run colors the job's graph once and returns the coloring.
func (j *kernelJob) run(tr *tracer, op int64) ([]int32, error) {
	// Allocations are read outside the span: the read stops the world.
	var before uint64
	if tr.recording() {
		before = mallocs()
	}
	id := tr.begin(spanNames[j.kind], -1, op)
	var res *core.Result
	var err error
	switch j.kind {
	case kindBGPC:
		res, err = core.ColorCtx(context.Background(), j.g, j.opts)
	case kindD2:
		res, err = d2.ColorCtx(context.Background(), j.ug, j.opts)
	case kindSeq:
		res = core.Sequential(j.g, nil)
	}
	if id >= 0 {
		attrs := map[string]float64{"nnz": float64(j.nnz)}
		if res != nil {
			resultAttrs(attrs, res, j.ref.nVtx)
		}
		tr.end(id, attrs)
		tr.setAttr(id, "allocs", float64(mallocs()-before))
	}
	if err != nil {
		return nil, err
	}
	return res.Colors, nil
}

// resultAttrs copies a kernel Result's phase breakdown into span attrs.
func resultAttrs(attrs map[string]float64, res *core.Result, n int) {
	attrs["iterations"] = float64(res.Iterations)
	attrs["color_ms"] = ms(res.ColoringTime)
	attrs["conflict_ms"] = ms(res.ConflictTime)
	if res.CriticalWork > 0 {
		attrs["work_speedup"] = float64(res.TotalWork) / float64(res.CriticalWork)
	}
	if len(res.Iters) > 0 && n > 0 {
		attrs["first_conflict_ratio"] = float64(res.Iters[0].Conflicts) / float64(n)
	}
}

// runBatchKernel is the kernel-only workload: one caller colors the
// preset list back to back, in a seeded order per pass.
func runBatchKernel(cfg *config, tr *tracer, r *report) error {
	var jobs []*kernelJob
	var samples []sample
	var setups []time.Duration
	for rep := 0; rep < cfg.setupReps; rep++ {
		t0 := time.Now()
		var err error
		if jobs, samples, err = buildKernelJobs(cfg.threads); err != nil {
			return err
		}
		for _, j := range jobs { // warm-up pass
			colors, err := j.run(nil, -1)
			if err != nil {
				return fmt.Errorf("%s: %w", j.name, err)
			}
			if _, err := j.ref.check(colors); err != nil {
				return fmt.Errorf("warm-up %s: %w", j.name, err)
			}
		}
		setups = append(setups, time.Since(t0))
	}
	dg := newDigest(cfg.workload, cfg.seed)
	for _, j := range jobs {
		dg.str(j.name)
		for _, k := range j.ref.keys() {
			dg.int(int64(k))
		}
	}
	// The order of each pass over the list is drawn from the seed.
	rng := newRand(cfg.seed, "batch-kernel/order")
	const passes = 4096
	order := make([]int32, 0, passes*len(jobs))
	for p := 0; p < passes; p++ {
		for _, k := range rng.Perm(len(jobs)) {
			order = append(order, int32(k))
		}
	}
	for _, k := range order[:len(jobs)*64] {
		dg.int(int64(k))
	}
	drng := newRand(cfg.seed, "batch-kernel/replay-delta")
	for i := range samples {
		samples[i].ins, samples[i].rem = randomDelta(drng, samples[i].ref, 32, 32)
		dg.int(int64(len(samples[i].ins) + len(samples[i].rem)))
	}
	r.linef("workload batch-kernel: %d graphs per pass, threads=%d, inputs digest %s", len(jobs), cfg.threads, dg.sum())

	op := func(i int64, p *phase) {
		k := order[i%int64(len(order))]
		j := jobs[k]
		start := time.Now()
		colors, err := j.run(tr, i)
		o := outcome{end: time.Now(), class: int(k)}
		if err != nil {
			o.errMsg = fmt.Sprintf("%s: %v", j.name, err)
		} else if used, err := j.ref.check(colors); err != nil {
			o.invalid, o.errMsg = true, fmt.Sprintf("%s: %v", j.name, err)
		} else {
			o.ok = true
			o.colorsRatio = float64(used) / float64(j.ref.lowerBound())
		}
		p.record(o.end.Sub(start), o, batchKernelSlo)
	}
	return execute(cfg, tr, r, &plan{setups: setups, callers: 1, unit: len(jobs), op: op, slo: batchKernelSlo, samples: samples, st: &layerStats{}})
}
