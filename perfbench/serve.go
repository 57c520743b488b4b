package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/router"
	"bgpc/internal/service"
	"bgpc/internal/wal"
)

// Open-loop rates are part of each workload's definition, so the same
// rate is offered on every host and in every later version.
const (
	serveSmallRate = 1000.0 // requests per second
	fleetDeltaRate = 100.0  // delta chains per second
)

// Latency limits of slo_ok_ratio: about 3× the p99 of each workload's
// slowest request class on a 2-core x86-64 VM (serve-small: cache
// misses, 6 ms; fleet-delta: full colors and fallbacks, 7.5–10 ms), so
// the ratio falls when the tail grows, not only when requests fail.
const (
	serveSmallSlo = 20 * time.Millisecond
	fleetDeltaSlo = 30 * time.Millisecond
)

// quietLog formats every record as the daemons' default text handler
// does, so logging costs what it costs in production, and discards it.
func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func newServer(threads int, log *wal.Log) *service.Server {
	return service.New(service.Config{
		Workers:        threads,
		QueueDepth:     4 * threads,
		MaxThreads:     threads,
		DefaultTimeout: 10 * time.Second,
		WAL:            log,
		Log:            quietLog(),
	})
}

func drain(srvs ...*service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range srvs {
		s.Drain(ctx)
	}
}

// smallEnv is one booted serve-small set-up.
type smallEnv struct {
	srv    *service.Server
	bodies [][]byte
	refs   []*refGraph
	mix    []int32
}

// serveSmallPresets are the cached requests mixed into serve-small:
// 27 to 744 nonzeros, as small as the documents, so that no latency
// quantile sits on the boundary between a cheap and a costly class.
var serveSmallPresets = []struct {
	name  string
	scale float64
}{{"channel", 0.005}, {"nlpkkt", 0.005}, {"copapers", 0.005}, {"movielens", 0.01}}

const (
	serveSmallDocs   = 512  // distinct documents, cycled; far above the 64-entry cache
	serveSmallMixLen = 8192 // seeded request sequence, cycled
	serveSmallHits   = 0.2  // share of preset (cache-hit) requests
)

func buildSmallEnv(cfg *config, dg *digest) (*smallEnv, []sample, error) {
	e := &smallEnv{}
	rng := newRand(cfg.seed, "serve-small/docs")
	var samples []sample
	for i := 0; i < serveSmallDocs; i++ {
		ref := randomSymmetric(rng, 8+rng.IntN(57), 1+rng.IntN(3))
		doc := ref.matrixMarket()
		dg.str(doc)
		e.bodies = append(e.bodies, colorBody(doc, cfg.threads))
		e.refs = append(e.refs, ref)
		if i < 8 {
			samples = append(samples, sample{ref: ref, symmetric: true})
		}
	}
	for _, p := range serveSmallPresets {
		g, err := gen.Preset(p.name, p.scale)
		if err != nil {
			return nil, nil, err
		}
		dg.str(fmt.Sprintf("%s@%g", p.name, p.scale))
		e.bodies = append(e.bodies, presetBody(p.name, p.scale, cfg.threads))
		e.refs = append(e.refs, refFromBipartite(g))
	}
	// Misses walk the documents in order, so a document recurs only
	// after every other one has been sent.
	mrng := newRand(cfg.seed, "serve-small/mix")
	next := 0
	for i := 0; i < serveSmallMixLen; i++ {
		k := int32(next % serveSmallDocs)
		if mrng.Float64() < serveSmallHits {
			k = int32(serveSmallDocs + mrng.IntN(len(serveSmallPresets)))
		} else {
			next++
		}
		e.mix = append(e.mix, k)
		dg.int(int64(k))
	}
	drng := newRand(cfg.seed, "serve-small/replay-delta")
	for i := range samples {
		samples[i].ins, samples[i].rem = randomDelta(drng, samples[i].ref, 4, 4)
	}
	e.srv = newServer(cfg.threads, nil)
	return e, samples, nil
}

// runServeSmall drives one in-process service.Server with small
// distinct documents (cache misses) and repeated presets (cache hits).
func runServeSmall(cfg *config, tr *tracer, r *report) error {
	var e *smallEnv
	var samples []sample
	var setups []time.Duration
	var dg *digest
	st := &layerStats{}
	for rep := 0; rep < cfg.setupReps; rep++ {
		t0 := time.Now()
		if e != nil {
			drain(e.srv)
		}
		dg = newDigest(cfg.workload, cfg.seed)
		var err error
		if e, samples, err = buildSmallEnv(cfg, dg); err != nil {
			return err
		}
		cl := &client{h: e.srv, name: "service.ServeHTTP"}
		for i := 0; i < 2*serveSmallDocs; i++ { // warm-up: every document once
			k := e.mix[i]
			if o := judge(cl.post(-1, "/color", e.bodies[k]), e.refs[k]); !o.ok {
				return fmt.Errorf("warm-up request failed: %s", o.errMsg)
			}
		}
		setups = append(setups, time.Since(t0))
	}
	defer drain(e.srv)
	arrivals := func(d time.Duration) []time.Duration {
		a := poissonArrivals(newRand(cfg.seed, "serve-small/arrivals"), serveSmallRate, d)
		dg.schedule(a)
		return a
	}
	cl := &client{h: e.srv, name: "service.ServeHTTP", tr: tr, st: st}
	op := func(i int64, p *phase) {
		k := e.mix[i%int64(len(e.mix))]
		start := time.Now()
		res := cl.post(i, "/color", e.bodies[k])
		o := judge(res, e.refs[k])
		if k >= serveSmallDocs {
			o.class = 1 // a preset: a cache hit
		}
		p.record(res.end.Sub(start), o, serveSmallSlo)
	}
	r.linef("workload serve-small: %d documents + %d presets, hit share %.2f, open-loop rate %.0f/s, threads=%d",
		serveSmallDocs, len(serveSmallPresets), serveSmallHits, serveSmallRate, cfg.threads)
	err := execute(cfg, tr, r, &plan{setups: setups, callers: cfg.threads, unit: 1, op: op, open: arrivals, slo: serveSmallSlo, samples: samples, st: st})
	r.linef("inputs digest %s", dg.sum())
	return err
}

// chainStep is one request of a fleet-delta chain.
type chainStep struct {
	isDelta bool
	body    []byte
	// fallback re-colors the step's graph in full when its delta is
	// answered 404 (the base is not cached where the delta landed).
	fallback []byte
	ins, rem []bipartite.Edge
	// ref is the graph after the step: the base for colors, the base
	// with every delta so far applied for deltas.
	ref *refGraph
}

type chain []chainStep

const (
	// fleetWarmChains is the number of chains set-up sends. The measured
	// chains are drawn apart from them, one per operation index, so each
	// is new to the fleet: its full color and its deltas are all
	// appended to a write-ahead log.
	fleetWarmChains    = 256
	fleetDeltasPerLink = 4
	fleetBackends      = 2
	// fleetThreads is the per-request thread count: the chain graphs
	// are small, and the write path, not the kernel, is under test.
	fleetThreads = 1
)

// newChain draws one fleet-delta chain from rng: a full color of a
// fresh symmetric document, fleetDeltasPerLink deltas against it, then
// a repeat color of the base (a cache read).
func newChain(rng *rand.Rand) chain {
	base := randomSymmetric(rng, 48+rng.IntN(49), 2)
	body := colorBody(base.matrixMarket(), fleetThreads)
	ch := chain{{body: body, ref: base}}
	cur := base
	for k := 0; k < fleetDeltasPerLink; k++ {
		ins, rem := randomDelta(rng, cur, 6, 3)
		cur = cur.applyDelta(ins, rem)
		b, err := json.Marshal(service.DeltaRequest{Insert: ins, Remove: rem, TimeoutMS: 10000})
		if err != nil {
			panic(err)
		}
		ch = append(ch, chainStep{isDelta: true, body: b, fallback: colorBody(cur.matrixMarket(), fleetThreads), ins: ins, rem: rem, ref: cur})
	}
	return append(ch, chainStep{body: body, ref: base})
}

// measuredChain is the chain of measured operation i. Each operation
// draws its own chain from a stream named by its index, so the inputs
// do not depend on which caller ran which operation, and no chain ever
// repeats within a run.
func measuredChain(seed uint64, i int64) chain {
	return newChain(newRand(seed, fmt.Sprintf("fleet-delta/chain/%d", i)))
}

// digestChain adds every request body of ch to dg.
func digestChain(dg *digest, ch chain) {
	for _, s := range ch {
		dg.bytes(s.body)
		dg.bytes(s.fallback)
	}
}

// buildWarmChains draws the chains set-up sends, and the samples the
// traced run replays from them.
func buildWarmChains(cfg *config) ([]chain, []sample) {
	rng := newRand(cfg.seed, "fleet-delta/warm")
	chains := make([]chain, fleetWarmChains)
	var samples []sample
	for c := range chains {
		chains[c] = newChain(rng)
		if c < 8 {
			samples = append(samples, sample{ref: chains[c][0].ref, symmetric: true, ins: chains[c][1].ins, rem: chains[c][1].rem})
		}
	}
	return chains, samples
}

// fleetDigest covers the warm-up chains and the first measured ones.
func fleetDigest(cfg *config, warm []chain) *digest {
	dg := newDigest(cfg.workload, cfg.seed)
	for _, ch := range warm {
		digestChain(dg, ch)
	}
	for i := int64(0); i < 64; i++ {
		digestChain(dg, measuredChain(cfg.seed, i))
	}
	return dg
}

// fleet is an in-process router in front of backends reached through a
// memTransport, each backend with its own write-ahead log.
type fleet struct {
	rt   *router.Router
	srvs []*service.Server
	logs []*wal.Log
	tp   *memTransport
	dir  string
}

func newFleet(cfg *config, tr *tracer, backends int, dir string) (*fleet, error) {
	f := &fleet{tp: &memTransport{backends: map[string]http.Handler{}, tr: tr}, dir: dir}
	var names []string
	for b := 0; b < backends; b++ {
		log, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, fmt.Sprintf("b%d", b)), Sync: wal.SyncInterval})
		if err != nil {
			f.close()
			return nil, err
		}
		f.logs = append(f.logs, log)
		srv := newServer(cfg.threads, log)
		f.srvs = append(f.srvs, srv)
		name := fmt.Sprintf("b%d.fleet", b)
		names = append(names, name)
		f.tp.backends[name] = srv
	}
	rt, err := router.New(router.Config{Backends: names, Transport: f.tp, Log: quietLog()})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	return f, nil
}

// close stops the router and backends and removes the WAL directories.
func (f *fleet) close() {
	if f.rt != nil {
		f.rt.Close()
	}
	drain(f.srvs...)
	for _, l := range f.logs {
		l.Close()
	}
	os.RemoveAll(f.dir)
}

// Fleet request kinds, the latency classes of fleet-delta.
const (
	kindColor = iota
	kindDelta
	kindFallback // a delta answered 404, then a full color
	kindRead
)

// runChain sends chain ch through cl, recording one operation per
// request. A delta answered 404 falls back to a full color of the
// mutated graph; the chain continues from whichever answered.
func runChain(cl *client, ch chain, op int64, p *phase) {
	fp := ""
	for k, s := range ch {
		class := kindColor
		switch {
		case s.isDelta:
			class = kindDelta
		case k > 0:
			class = kindRead
		}
		start := time.Now()
		var res call
		if s.isDelta && fp != "" {
			res = cl.post(op, "/color/"+fp+"/delta", s.body)
			if res.status == http.StatusNotFound {
				class = kindFallback
				res = cl.post(op, "/color", s.fallback)
			}
		} else {
			body := s.body
			if s.isDelta {
				class = kindFallback
				body = s.fallback // the chain lost its fingerprint
			}
			res = cl.post(op, "/color", body)
		}
		o := judge(res, s.ref)
		o.class = class
		p.record(res.end.Sub(start), o, fleetDeltaSlo)
		fp = ""
		if o.ok {
			fp = res.rep.Fingerprint
		}
	}
}

// runFleetDelta drives a router over two WAL-backed backends with
// delta chains and cache reads.
func runFleetDelta(cfg *config, tr *tracer, r *report) error {
	var f *fleet
	var warm []chain
	var samples []sample
	var setups []time.Duration
	st := &layerStats{}
	for rep := 0; rep < cfg.setupReps; rep++ {
		t0 := time.Now()
		if f != nil {
			f.close()
		}
		warm, samples = buildWarmChains(cfg)
		var err error
		f, err = newFleet(cfg, tr, fleetBackends, filepath.Join(cfg.out, fmt.Sprintf("wal-%d-%d", os.Getpid(), rep)))
		if err != nil {
			return err
		}
		cl := &client{h: f.rt, name: "router.ServeHTTP"}
		p := &phase{}
		for _, ch := range warm {
			runChain(cl, ch, -1, p)
		}
		if p.failed > 0 {
			f.close()
			return fmt.Errorf("warm-up chain failed: %s", p.firstErrMsg)
		}
		setups = append(setups, time.Since(t0))
	}
	defer f.close()
	dg := fleetDigest(cfg, warm)
	arrivals := func(d time.Duration) []time.Duration {
		a := poissonArrivals(newRand(cfg.seed, "fleet-delta/arrivals"), fleetDeltaRate, d)
		dg.schedule(a)
		return a
	}
	cl := &client{h: f.rt, name: "router.ServeHTTP", tr: tr, st: st}
	op := func(i int64, p *phase) {
		runChain(cl, measuredChain(cfg.seed, i), i, p)
	}
	r.linef("workload fleet-delta: %d warm-up chains, then a new chain per operation, each 1 color + %d deltas + 1 read; %d backends, open-loop rate %.0f chains/s, %d callers, %d thread per request",
		fleetWarmChains, fleetDeltasPerLink, fleetBackends, fleetDeltaRate, cfg.threads, fleetThreads)
	err := execute(cfg, tr, r, &plan{setups: setups, callers: cfg.threads, unit: 1, op: op, open: arrivals, slo: fleetDeltaSlo, samples: samples, st: st})
	r.linef("inputs digest %s", dg.sum())
	r.linef("delta owner hits: %d of %d deltas reached a backend that knew the base (the rest fell back to a full color)",
		st.deltaOwnerHits.Load(), st.deltas.Load())
	if err == nil && !cfg.trace && r.walAppends == 0 {
		err = fmt.Errorf("no write-ahead log append in the latency phase: the write path went unmeasured")
	}
	return err
}
