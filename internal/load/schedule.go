package load

import (
	"fmt"
	"math"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/mtx"
	"bgpc/internal/rng"
	"bgpc/internal/service"
)

// Item is one scheduled request: its arrival offset from run start and
// everything the dispatcher needs to issue and classify it.
type Item struct {
	Index int
	// At is the open-loop arrival offset; the dispatcher sends at this
	// time regardless of how earlier requests are faring.
	At  time.Duration
	Req service.ColorRequest
	// Key identifies the graph population member ("preset@scale" for
	// clean traffic, "hostile/<kind>" otherwise) for cache accounting.
	Key string
	// Hostile names the mtx hostile-input kind, "" for clean traffic.
	Hostile string
	// CancelAfter > 0 means the client abandons the request this long
	// after dispatch (exercises daemon-side cancellation paths).
	CancelAfter time.Duration
	// Delta, when non-nil, issues this item as an incremental
	// recoloring (POST /color/{fp}/delta) against the fingerprint the
	// dispatcher learned from a prior full color of the same Key. With
	// no fingerprint learned yet — or on a 404 (the daemon evicted it) —
	// the dispatcher falls back to the full-color Req, which is exactly
	// the recovery a real delta client performs.
	Delta *service.DeltaRequest
}

// Schedule is a fully materialized request sequence plus the
// populations it draws from.
type Schedule struct {
	Spec  Spec
	Items []Item
	// DistinctKeys is the number of distinct clean graph keys the
	// schedule can address (the fingerprint-population size).
	DistinctKeys int
}

// BuildSchedule expands a validated spec into its exact request
// sequence. Every decision — inter-arrival gaps, mix choice, scale
// rung, hostile substitution, cancellation — comes from one SplitMix64
// stream seeded with spec.Seed, drawn in a fixed per-item order, so
// the same spec always yields the identical schedule. Arrivals are
// Poisson (exponential gaps at rate RPS), the standard open-loop
// arrival model.
func BuildSchedule(spec Spec) (*Schedule, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	r := rng.New(spec.Seed)

	// Per-entry scale-rung populations: geometric steps from the base
	// scale guaranteed to produce distinct graph dimensions, hence
	// distinct cache fingerprints.
	rungs := make([][]float64, len(spec.Mix))
	// Per-rung graph dimensions, resolved up front so delta items can
	// draw in-range edge endpoints. EstimateDims' row/col counts are
	// exact for every preset (only nnz is an estimate).
	dims := make([][][2]int, len(spec.Mix))
	keys := map[string]bool{}
	var totalW float64
	for i, e := range spec.Mix {
		rs, err := gen.ScaleRungs(e.Preset, e.Scale, spec.Fingerprints)
		if err != nil {
			return nil, fmt.Errorf("load: mix[%d]: %w", i, err)
		}
		rungs[i] = rs
		if e.DeltaRate > 0 {
			dims[i] = make([][2]int, len(rs))
			for j, sc := range rs {
				rows, cols, _, err := gen.EstimateDims(e.Preset, sc)
				if err != nil {
					return nil, fmt.Errorf("load: mix[%d]: %w", i, err)
				}
				dims[i][j] = [2]int{rows, cols}
			}
		}
		for _, sc := range rs {
			keys[fmt.Sprintf("%s@%.9g", e.Preset, sc)] = true
		}
		totalW += e.Weight
	}

	// One Zipf sampler per mix entry, all sharing the schedule stream.
	// Rank 0 (the base scale) is the most popular rung.
	var zipfs []*rng.Zipf
	if spec.ZipfS > 0 {
		zipfs = make([]*rng.Zipf, len(spec.Mix))
		for i := range spec.Mix {
			zipfs[i] = rng.NewZipf(r, spec.ZipfS, len(rungs[i]))
		}
	}
	hostileKinds := mtx.HostileKinds()

	sched := &Schedule{Spec: spec, DistinctKeys: len(keys)}
	sched.Items = make([]Item, 0, spec.Requests)
	var at time.Duration
	hostileNext := 0
	for i := 0; i < spec.Requests; i++ {
		// Exponential inter-arrival gap with mean 1/RPS (inverse-CDF;
		// Float64 ∈ [0,1) keeps the log argument in (0,1]).
		gap := -math.Log(1-r.Float64()) / spec.RPS
		at += time.Duration(gap * float64(time.Second))

		it := Item{Index: i, At: at}
		it.Req.Threads = spec.Threads
		it.Req.TimeoutMS = spec.TimeoutMS

		if spec.HostileRate > 0 && r.Float64() < spec.HostileRate {
			// Cycle kinds so every hostile path is exercised even at
			// low rates.
			kind := hostileKinds[hostileNext%len(hostileKinds)]
			hostileNext++
			doc, err := mtx.HostileDoc(kind)
			if err != nil {
				return nil, err
			}
			it.Hostile = kind
			it.Key = "hostile/" + kind
			it.Req.Matrix = doc
		} else {
			e, ei := pickMix(spec.Mix, totalW, r)
			rank := 0
			if zipfs != nil {
				rank = zipfs[ei].Next()
			} else if len(rungs[ei]) > 1 {
				rank = r.Intn(len(rungs[ei]))
			}
			sc := rungs[ei][rank]
			it.Key = fmt.Sprintf("%s@%.9g", e.Preset, sc)
			it.Req.Preset = e.Preset
			it.Req.Scale = sc
			it.Req.Algorithm = e.Algorithm
			it.Req.Mode = e.Mode
			// Delta substitution is gated on the entry's rate before any
			// randomness is consumed, so specs without delta traffic
			// produce byte-identical schedules to earlier versions.
			if e.DeltaRate > 0 && r.Float64() < e.DeltaRate {
				it.Delta = deltaRequest(r, spec.DeltaEdges, dims[ei][rank], e.Mode, spec.TimeoutMS)
			}
		}

		if spec.CancelRate > 0 && r.Float64() < spec.CancelRate {
			// Cancel quickly enough to catch requests mid-flight but
			// late enough to reach the daemon: 1–5 ms.
			it.CancelAfter = time.Duration(1+r.Intn(5)) * time.Millisecond
		}
		sched.Items = append(sched.Items, it)
	}
	return sched, nil
}

// deltaRequest draws one scheduled delta: `edges` random inserts
// within the rung's dimensions. For d2-mode entries the inserts come in
// mirrored pairs, preserving the structural symmetry the mode requires
// of the mutated graph. Insert-only is deliberate: inserts are what
// create recoloring work (the dirty set), while random removals would
// almost always be no-ops against a sparse graph.
func deltaRequest(r *rng.SplitMix64, edges int, dim [2]int, mode string, timeoutMS int64) *service.DeltaRequest {
	rows, cols := dim[0], dim[1]
	req := &service.DeltaRequest{Mode: mode, TimeoutMS: timeoutMS}
	if mode == "d2" {
		for len(req.Insert) < edges {
			a, b := int32(r.Intn(rows)), int32(r.Intn(rows))
			req.Insert = append(req.Insert, bipartite.Edge{Net: a, Vtx: b})
			if a != b {
				req.Insert = append(req.Insert, bipartite.Edge{Net: b, Vtx: a})
			}
		}
		return req
	}
	for i := 0; i < edges; i++ {
		req.Insert = append(req.Insert, bipartite.Edge{
			Net: int32(r.Intn(rows)), Vtx: int32(r.Intn(cols)),
		})
	}
	return req
}

// pickMix draws a weighted mix entry.
func pickMix(mix []MixEntry, totalW float64, r *rng.SplitMix64) (MixEntry, int) {
	u := r.Float64() * totalW
	for i, e := range mix {
		u -= e.Weight
		if u < 0 {
			return e, i
		}
	}
	return mix[len(mix)-1], len(mix) - 1
}
