package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bgpc/internal/delta"
	"bgpc/internal/limits"
	"bgpc/internal/obs"
	"bgpc/internal/trace"
	"bgpc/internal/verify"
)

// DeltaRequest is the POST /color/{fingerprint}/delta body: a batch of
// edge mutations against a previously colored graph, addressed by the
// fingerprint a prior ColorResponse returned.
//
//	POST /color/3f2a…/delta
//	  {"insert": [[0,3],[7,1]], "remove": [[2,2]], "mode": "bgpc"}
//
//	200 → DeltaResponse (coloring of the mutated graph + its new
//	      fingerprint, which addresses the *next* delta)
//	400 → malformed delta (bad pairs, over-cap lists, out-of-range
//	      endpoints, an edge in both lists, symmetry broken in d2 mode)
//	404 → the fingerprint (or its coloring for this mode) is not
//	      cached — fall back to POST /color and retry the delta chain
//	      from the fingerprint it returns
//	413/429/500/503 → as for POST /color
type DeltaRequest struct {
	// Insert and Remove are [net, vtx] pair lists applied as
	// (E ∪ Insert) \ Remove. Both optional; both capped at
	// limits.MaxDeltaEdges.
	Insert delta.EdgeList `json:"insert,omitempty"`
	Remove delta.EdgeList `json:"remove,omitempty"`
	// Mode selects which cached coloring to warm-start from: "bgpc"
	// (default) or "d2". It must name a mode this fingerprint was
	// previously colored in.
	Mode string `json:"mode,omitempty"`
	// TimeoutMS is the per-request deadline, as for ColorRequest.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DeltaResponse is the 200 body of a delta recoloring.
type DeltaResponse struct {
	// Colors is the complete valid coloring of the mutated graph.
	Colors []int32 `json:"colors"`
	// NumColors and MaxColor summarize the color set.
	NumColors int   `json:"num_colors"`
	MaxColor  int32 `json:"max_color"`
	// BaseFingerprint echoes the fingerprint the delta addressed;
	// Fingerprint identifies the mutated graph, now cached — address
	// the next delta in the chain at it.
	BaseFingerprint string `json:"base_fingerprint"`
	Fingerprint     string `json:"fingerprint"`
	// Inserted and Removed are the *effective* mutations (inserting a
	// present edge or removing an absent one is a no-op).
	Inserted int `json:"inserted"`
	Removed  int `json:"removed"`
	// Dirty is the number of vertices uncolored for recoloring;
	// Recolored is how many ended with a different color than the warm
	// start. Dirty ≪ total is the delta path's entire economic case.
	Dirty     int `json:"dirty"`
	Recolored int `json:"recolored"`
	// TotalVertices sizes Dirty against the graph.
	TotalVertices int `json:"total_vertices"`
	// WallMS and QueueMS split latency as in ColorResponse.
	WallMS  float64 `json:"wall_ms"`
	QueueMS float64 `json:"queue_ms"`
	// RequestID echoes the request's correlation id.
	RequestID string `json:"request_id,omitempty"`
	// TraceID mirrors the X-BGPC-Trace header, as in ColorResponse.
	TraceID string `json:"trace_id,omitempty"`
}

// deltaSpec is a validated delta request bound to its base fingerprint.
type deltaSpec struct {
	fp      string // base fingerprint hex (the path parameter)
	key     string // quarantine/annotation key ("fp:" + fp)
	d       delta.Delta
	d2mode  bool
	variant string // "delta" or "delta/d2"
	timeout time.Duration
}

// decodeDeltaRequest parses and validates a delta body against the
// path's fingerprint. Like decodeColorRequest it is factored off the
// handler so the fuzz battery (FuzzDeltaRequest) can drive the full
// decode+validate path without a listener; the returned status applies
// when err != nil and is always 4xx — hostile bodies must never be a
// server fault. Validation here is graph-independent; endpoint range
// checks against the cached graph's actual dimensions happen at apply
// time on a pooled worker.
func (s *Server) decodeDeltaRequest(fingerprint string, raw []byte) (*deltaSpec, int, error) {
	if !validFingerprint(fingerprint) {
		return nil, http.StatusBadRequest, fmt.Errorf("malformed fingerprint %q (want 16 hex digits)", fingerprint)
	}
	var req DeltaRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err)
	}
	d := delta.Delta{Insert: req.Insert, Remove: req.Remove}
	if err := d.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if d.Empty() {
		return nil, http.StatusBadRequest, errors.New("empty delta: give insert and/or remove edge lists")
	}
	spec := &deltaSpec{fp: fingerprint, key: "fp:" + fingerprint, d: d, variant: "delta"}
	var err error
	if spec.d2mode, err = ParseMode(req.Mode); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if spec.d2mode {
		spec.variant = "delta/d2"
	}
	if spec.timeout, err = s.deadline(req.TimeoutMS); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return spec, 0, nil
}

// writeDeltaMiss answers a delta 404, carrying the recoverable hint
// that tells clients whether the fingerprint is gone for good (unlearn
// it, fall back to a full color) or merely unavailable right now (the
// WAL acknowledged it; retry instead of unlearning).
func (s *Server) writeDeltaMiss(w http.ResponseWriter, rec *obs.Recorder, recoverable bool, format string, args ...any) {
	obs.SvcDeltaMisses.Inc()
	rec.Annotate("outcome", "delta_miss")
	if recoverable {
		rec.Annotate("recoverable", "true")
	}
	writeStamped(w, http.StatusNotFound,
		&ErrorResponse{Error: fmt.Sprintf(format, args...), Recoverable: recoverable})
}

func validFingerprint(fp string) bool {
	if len(fp) != 16 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleDelta is POST /color/{fingerprint}/delta. Cheap validation and
// the cache lookup run on the handler goroutine; everything that
// touches CSR arrays — apply, recolor, verify — runs on a pooled
// worker under the same admission control as a full color, because a
// hostile "delta" against a huge cached graph still pays an O(nnz)
// merge and must not bypass the backpressure model.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	rec := obs.RecorderFromContext(r.Context())
	decode := rec.StartSpanKind("decode", trace.KindDecode)
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	spec, status, err := s.decodeDeltaRequest(r.PathValue("fingerprint"), raw)
	decode.End()
	if err != nil {
		s.writeStatus(w, status, err)
		return
	}
	rec.Annotate("variant", spec.variant)
	rec.Annotate("graph", spec.key)

	// The 404 contract: a delta is only an optimization over the cached
	// state; when that state is gone (eviction, restart, chaos), the
	// WAL gets a chance to rehydrate it first, and only a fingerprint
	// the log has no record of either is a definitive miss — the client
	// re-colors from scratch and resumes the chain from the fingerprint
	// the full color returns. A fingerprint the log acknowledged but
	// could not produce right now 404s with recoverable=true so a
	// recovery race never makes a client unlearn durable state.
	mode := modeName(spec.d2mode)
	entry, ok := s.cache.getByFingerprint(spec.fp)
	if !ok {
		var recoverable bool
		if entry, recoverable = s.rehydrate(spec.fp, mode); entry == nil {
			s.writeDeltaMiss(w, rec, recoverable,
				"fingerprint %s not cached; POST /color to re-color from scratch, then retry the delta against the fingerprint it returns", spec.fp)
			return
		}
		rec.Annotate("wal", "rehydrated")
	}
	base, ok := entry.coloring(mode)
	if !ok {
		// The graph is cached but this mode's coloring is not (evicted
		// entry re-cached via the other mode, or a restart): the log may
		// still hold the mode's coloring.
		if re, recoverable := s.rehydrate(spec.fp, mode); re != nil {
			entry = re
			base, ok = entry.coloring(mode)
			rec.Annotate("wal", "rehydrated")
		} else if recoverable {
			s.writeDeltaMiss(w, rec, true,
				"fingerprint %s has no cached %s coloring and rehydration is unavailable; retry shortly", spec.fp, mode)
			return
		}
		if !ok {
			s.writeDeltaMiss(w, rec, false,
				"fingerprint %s has no cached %s coloring; POST /color in mode %q first", spec.fp, mode, mode)
			return
		}
	}

	// Admission: the mutated graph is the cached one ± a bounded edge
	// list, so its footprint estimate comes from dimensions already in
	// memory — no parsing, no header peek.
	est, status, err := s.jobBytes(limits.Shape{
		Rows:    entry.g.NumNets(),
		Cols:    entry.g.NumVertices(),
		NNZ:     entry.g.NumEdges() + int64(len(spec.d.Insert)),
		D2:      spec.d2mode,
		Threads: 1,
	})
	if err != nil {
		s.writeStatus(w, status, err)
		return
	}
	s.serveJob(w, r, spec.key, spec.timeout, est, func(ctx context.Context, queued time.Duration) (stamper, int, error) {
		return s.executeDelta(ctx, spec, entry, base, queued)
	})
}

// executeDelta runs a validated delta on a worker: apply the mutation
// to the cached CSR, warm-start recolor only the dirty set via the
// sequential repair/finish paths, verify, and publish the mutated
// graph (plus its coloring) under its new fingerprint so the client
// can chain the next delta. The base entry and coloring are never
// mutated — concurrent deltas against one fingerprint each get private
// copies and race only on who publishes their (content-addressed,
// hence interchangeable) result entry first.
func (s *Server) executeDelta(ctx context.Context, spec *deltaSpec, entry *cacheEntry, base []int32, queued time.Duration) (*DeltaResponse, int, error) {
	rec := obs.RecorderFromContext(ctx)
	start := time.Now()

	apply := rec.StartSpanKind("apply", trace.KindApply)
	g2, inserted, removed, err := delta.Apply(entry.g, spec.d)
	apply.End()
	if err != nil {
		if errors.Is(err, delta.ErrInvalid) {
			return nil, http.StatusBadRequest, err
		}
		// Injected apply fault (chaos) or other internal failure.
		return nil, http.StatusInternalServerError, fmt.Errorf("delta apply failed: %w", err)
	}

	newEntry := newCacheEntry("", g2)

	// As for a full color, D2GC recolors the closed view. A delta can
	// break the structural symmetry d2 requires; that is a defect in the
	// client's delta, not in the server.
	kg, err := newEntry.kernelGraph(spec.d2mode)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("d2 mode: delta result: %w", err)
	}

	recolor := rec.StartSpanKind("recolor", trace.KindRecolor)
	colors, st, err := delta.RecolorBGPC(kg, base, spec.d.DirtyBGPC())
	recolor.End()
	if err != nil {
		// The only failures here are shape mismatches between the cached
		// graph and its cached coloring — internal invariants, not
		// client input.
		return nil, http.StatusInternalServerError, fmt.Errorf("delta recolor failed: %w", err)
	}

	// Same contract as a full color: never hand out an unverified
	// coloring, and never cache one either.
	vspan := rec.StartSpanKind("verify", trace.KindVerify)
	err = newEntry.verify(spec.d2mode, colors)
	vspan.End()
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("internal: delta produced an invalid coloring: %w", err)
	}

	// Publish only after verification. putEntry may return a concurrent
	// winner's entry for the same fingerprint; store the coloring on
	// whichever entry is actually in the cache.
	pub := s.cache.putEntry(newEntry)
	mode := modeName(spec.d2mode)
	pub.storeColoring(mode, colors)
	// Durability before acknowledgement: the delta record (base
	// fingerprint + edge lists) is what lets the chain survive cache
	// eviction and restarts.
	s.walAppend(rec, pub, mode, colors, entry.fpU, &spec.d)
	obs.SvcDeltaApplied.Inc()
	rec.Annotate("outcome", "ok")

	resp := &DeltaResponse{
		Colors:          colors,
		BaseFingerprint: spec.fp,
		Fingerprint:     newEntry.fp,
		Inserted:        inserted,
		Removed:         removed,
		Dirty:           st.Dirty,
		Recolored:       st.Recolored,
		TotalVertices:   g2.NumVertices(),
		WallMS:          float64(time.Since(start).Microseconds()) / 1000,
		QueueMS:         float64(queued.Microseconds()) / 1000,
	}
	cs := verify.Stats(colors)
	resp.NumColors = cs.NumColors
	resp.MaxColor = cs.MaxColor
	return resp, 0, nil
}
