package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/d2"
	"bgpc/internal/delta"
	"bgpc/internal/graph"
	"bgpc/internal/limits"
	"bgpc/internal/mtx"
	"bgpc/internal/par"
	"bgpc/internal/service"
	"bgpc/internal/verify"
	"bgpc/internal/wal"
)

// plan is what a workload hands to execute: its measured operation and
// what the traced run replays.
type plan struct {
	setups  []time.Duration
	callers int
	// unit is the number of operations the closed loop completes as a
	// whole (one pass over a list); 1 means any operation.
	unit int
	op   opFunc
	// open, when set, draws the open-loop schedule for a phase of the
	// given length; nil means the workload is closed-loop only.
	open func(time.Duration) []time.Duration
	slo  time.Duration
	// samples are the inputs the traced run replays layer by layer.
	samples []sample
	st      *layerStats
}

// execute runs a workload's measured phases. Untraced: (serving
// workloads) an open loop for latency, then a closed loop for capacity;
// batch-kernel's one closed loop gives both. The open loop runs first
// so that the state it starts from — the write-ahead logs, the caches —
// is the set-up's, whatever the closed loop's speed. Traced: a traced
// open loop, closed-loop slices traced and untraced (their throughput
// ratio is the tracing overhead), then the layer replay of the samples.
func execute(cfg *config, tr *tracer, r *report, pl *plan) error {
	var seq atomic.Int64
	if !cfg.trace {
		if pl.open == nil {
			c := closedLoop(pl.callers, pl.unit, cfg.dur(1), &seq, pl.op)
			r.count(c)
			r.endToEnd(pl.setups, pl.callers, c, c, pl.slo)
			return nil
		}
		o := openLoop(cfg.threads, pl.open(cfg.dur(0.5)), &seq, pl.op)
		c := closedLoop(pl.callers, pl.unit, cfg.dur(0.5), &seq, pl.op)
		r.count(o, c)
		r.endToEnd(pl.setups, pl.callers, c, o, pl.slo)
		return nil
	}
	slice := cfg.dur(1.0 / 6)
	if pl.open != nil {
		slice = cfg.dur(1.0 / 8)
	}
	// The traced open loop runs first, from the set-up's state, as in
	// the untraced run. The closed-loop slices follow in the order
	// traced, untraced, untraced, traced, so that a drift over the run
	// (fleet-delta's logs grow with every chain) cancels out of the
	// overhead.
	var untraced, traced []*phase
	var lag []time.Duration
	tr.enable()
	if pl.open != nil {
		o := openLoop(cfg.threads, pl.open(2*slice), &seq, pl.op)
		r.count(o)
		lag = o.lag
	}
	for _, on := range []bool{true, false, false, true} {
		tr.on.Store(on)
		c := closedLoop(pl.callers, pl.unit, slice, &seq, pl.op)
		r.count(c)
		if on {
			traced = append(traced, c)
		} else {
			untraced = append(untraced, c)
		}
	}
	if lag == nil {
		lag = append(traced[0].lag, traced[1].lag...)
	}
	parProbe(cfg, tr)
	rp, err := replay(cfg, tr, pl.samples, pl.st)
	if err != nil {
		return err
	}
	r.count(rp)
	ut, tt := rate(untraced), rate(traced)
	r.linef("tracing overhead: %.1f%% (closed-loop throughput %.1f/s untraced, %.1f/s traced)", 100*(ut/tt-1), ut, tt)
	r.layer = layerMetrics(tr.snapshot(), pl.st, lag)
	for _, m := range perLayerMetrics {
		r.linef("%-34s %14.6g %s", m.name, r.layer[m.name], m.unit)
	}
	return nil
}

// rate is the operations per second over phases.
func rate(ps []*phase) float64 {
	var n int64
	var wall time.Duration
	for _, p := range ps {
		n += p.attempted
		wall += p.wall
	}
	return float64(n) / wall.Seconds()
}

// parProbe times an empty-body par.For at threads = nproc: the fixed
// cost of spawning and joining the thread team.
func parProbe(cfg *config, tr *tracer) {
	const batches, calls = 200, 50
	opts := par.Options{Threads: cfg.threads}
	body := func(tid, lo, hi int) {}
	for b := 0; b < batches; b++ {
		id := tr.begin("par.For", -1, -1)
		for c := 0; c < calls; c++ {
			par.For(cfg.threads, opts, body)
		}
		tr.end(id, map[string]float64{"calls": calls})
	}
}

// sample is one input the traced run replays through every layer.
type sample struct {
	ref       *refGraph
	symmetric bool
	ins, rem  []bipartite.Edge
}

// replay sends each sample through a one-backend replay fleet (a miss,
// a cache hit and a delta), then calls each layer's public function on
// the same input, every call a span parented under the miss request's
// backend ServeHTTP span. The replay is single-caller, so allocation
// counts around each call are exact.
func replay(cfg *config, tr *tracer, samples []sample, st *layerStats) (*phase, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("replay-%d", os.Getpid()))
	f, err := newFleet(cfg, tr, 1, dir)
	if err != nil {
		return nil, err
	}
	defer f.close()
	direct, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "direct"), Sync: wal.SyncInterval, SnapshotEvery: -1})
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	f.tp.countAllocs.Store(true)
	cl := &client{h: f.rt, name: "router.ServeHTTP", tr: tr, st: st}
	p := &phase{}
	for i, s := range samples {
		op := int64(1_000_000_000 + i)
		if err := replayOne(cfg, tr, cl, direct, s, op, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func replayOne(cfg *config, tr *tracer, cl *client, direct *wal.Log, s sample, op int64, p *phase) error {
	doc := s.ref.matrixMarket()
	body := colorBody(doc, cfg.threads)
	after := s.ref.applyDelta(s.ins, s.rem)
	dbody, err := json.Marshal(service.DeltaRequest{Insert: s.ins, Remove: s.rem})
	if err != nil {
		return err
	}
	send := func(path string, b []byte, ref *refGraph) call {
		start := time.Now()
		res := cl.post(op, path, b)
		p.record(res.end.Sub(start), judge(res, ref), time.Minute)
		return res
	}
	miss := send("/color", body, s.ref)
	send("/color", body, s.ref)
	if miss.status == http.StatusOK {
		send("/color/"+miss.rep.Fingerprint+"/delta", dbody, after)
	}
	parent := int32(-1)
	for _, sp := range tr.snapshot() {
		if sp.Parent == miss.span && sp.Name == "service.ServeHTTP" {
			parent = sp.ID
		}
	}

	// check records a direct call's coloring like any other operation.
	check := func(colors []int32, ref *refGraph) {
		o := outcome{end: time.Now()}
		if used, err := ref.check(colors); err != nil {
			o.invalid, o.errMsg = true, err.Error()
		} else {
			o.ok, o.colorsRatio = true, float64(used)/float64(ref.lowerBound())
		}
		p.record(0, o, time.Minute)
	}
	// timed runs fn as a child span carrying its nnz and its exact
	// allocation count (read outside the span). inHandler marks work the
	// backend handler also does for a miss; service.self_us is the
	// handler span minus those.
	nnz := float64(s.ref.nnz())
	var handlerWork time.Duration
	timed := func(name string, inHandler bool, fn func() error) (map[string]float64, error) {
		before := mallocs()
		id := tr.begin(name, parent, op)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		attrs := map[string]float64{"nnz": nnz}
		tr.end(id, attrs)
		tr.setAttr(id, "allocs", float64(mallocs()-before))
		if inHandler {
			handlerWork += d
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		return attrs, nil
	}

	var g *bipartite.Graph
	if _, err := timed("mtx.ReadLimited", true, func() (err error) {
		g, err = mtx.ReadLimited(strings.NewReader(doc), limits.ParseLimits{})
		return err
	}); err != nil {
		return err
	}
	edges := s.ref.edges()
	if _, err := timed("bipartite.FromEdges", false, func() (err error) {
		_, err = bipartite.FromEdges(s.ref.nNet, s.ref.nVtx, edges)
		return err
	}); err != nil {
		return err
	}
	var fp uint64
	timed("bipartite.Fingerprint", true, func() error { fp = g.Fingerprint(); return nil })

	opts, err := core.ParseAlgorithm("N1-N2")
	if err != nil {
		return err
	}
	opts.Threads = cfg.threads
	opts.CollectPerIteration = true
	var res *core.Result
	attrs, err := timed("core.ColorCtx", true, func() (err error) {
		res, err = core.ColorCtx(context.Background(), g, opts)
		return err
	})
	if err != nil {
		return err
	}
	resultAttrs(attrs, res, s.ref.nVtx)
	colors := res.Colors
	check(colors, s.ref)
	var seq *core.Result
	timed("core.Sequential", false, func() error { seq = core.Sequential(g, nil); return nil })
	check(seq.Colors, s.ref)
	if _, err := timed("verify.BGPC", true, func() error { return verify.BGPC(g, colors) }); err != nil {
		return err
	}
	if s.symmetric {
		ug, err := graph.FromBipartite(g)
		if err != nil {
			return err
		}
		var dres *core.Result
		attrs, err := timed("d2.ColorCtx", false, func() (err error) {
			dres, err = d2.ColorCtx(context.Background(), ug, opts)
			return err
		})
		if err != nil {
			return err
		}
		attrs["iterations"] = float64(dres.Iterations)
		check(dres.Colors, s.ref.closed())
	}
	d := delta.Delta{Insert: s.ins, Remove: s.rem}
	var g2 *bipartite.Graph
	if _, err := timed("delta.Apply", false, func() (err error) {
		g2, _, _, err = delta.Apply(g, d)
		return err
	}); err != nil {
		return err
	}
	dirty := d.DirtyBGPC()
	var colors2 []int32
	var dst delta.Stats
	attrs, err = timed("delta.RecolorBGPC", false, func() (err error) {
		colors2, dst, err = delta.RecolorBGPC(g2, colors, dirty)
		return err
	})
	if err != nil {
		return err
	}
	attrs["dirty_ratio"] = float64(dst.Dirty) / float64(max(s.ref.nVtx, 1))
	check(colors2, after)
	size := dirSize(direct.Dir())
	if attrs, err = timed("wal.AppendFull", true, func() error { return direct.AppendFull(fp, "bgpc", g, colors) }); err != nil {
		return err
	}
	attrs["bytes"], size = float64(dirSize(direct.Dir())-size), dirSize(direct.Dir())
	fp2 := g2.Fingerprint()
	if attrs, err = timed("wal.AppendDelta", false, func() error { return direct.AppendDelta(fp, fp2, "bgpc", s.ins, s.rem, colors2) }); err != nil {
		return err
	}
	attrs["bytes"] = float64(dirSize(direct.Dir()) - size)
	if _, err := timed("encode", true, func() (err error) {
		_, err = json.Marshal(&service.ColorResponse{Colors: colors, NumColors: res.NumColors, MaxColor: res.MaxColor, Iterations: res.Iterations, Fingerprint: fmt.Sprintf("%016x", fp)})
		return err
	}); err != nil {
		return err
	}
	if parent >= 0 {
		tr.setAttr(parent, "self_us", us(tr.dur(parent)-handlerWork))
	}
	return nil
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
