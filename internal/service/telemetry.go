package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"bgpc/internal/obs"
	"bgpc/internal/trace"
)

// Request-scoped telemetry: every inbound request gets exactly one
// correlation id (minted, or adopted from traceparent / X-Request-ID),
// echoed as the X-Request-ID response header and in every JSON body —
// success or error, including the recover path's 500. POST /color
// requests additionally carry an obs.Recorder in their context; the
// runners hand it their per-phase trace events, and the completed
// timeline lands in the trace ring served by /debug/requests/{id} and
// /debug/trace/{traceid}. One structured access-log line
// per request closes the loop: the id in a client's error message, the
// timeline, and the log line all correlate.

// discardLogger is the nil-Config default: a *slog.Logger whose handler
// refuses every record before any attribute is rendered.
func discardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// statusWriter records the response status for the access log and the
// latency histogram without changing the write path.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// finishRequest closes out one request: it stamps the timeline with the
// final status and duration, files it in the trace ring, feeds the latency histogram, and writes the
// access-log line. rec is nil for non-/color requests, which still get
// the log line and the latency observation.
func (s *Server) finishRequest(sw *statusWriter, r *http.Request, rec *obs.Recorder, id string, start time.Time) {
	dur := time.Since(start)
	status := sw.status
	if status == 0 {
		// Handler wrote nothing (e.g. client gone before the job
		// finished); net/http would have sent 200 on an empty body.
		status = http.StatusOK
	}
	outcome := rec.Attr("outcome")
	if outcome == "" {
		if status < 400 {
			outcome = "ok"
		} else {
			outcome = "error"
		}
	}
	variant := rec.Attr("variant")

	if rec != nil {
		v := variant
		if v == "" {
			v = "unknown"
		}
		obs.SvcLatency.With(v).Observe(dur.Seconds())
		t := rec.Snapshot()
		t.Status = status
		t.DurNS = dur.Nanoseconds()
		s.traces.Add(t)
		if s.cfg.Diag != nil && s.cfg.DiagLatency > 0 && dur >= s.cfg.DiagLatency {
			s.diagTrigger("slow_request",
				fmt.Sprintf("request %s took %s (threshold %s)", id, dur.Round(time.Millisecond), s.cfg.DiagLatency), t)
		}
	}

	s.log.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("variant", variant),
		slog.Int("rounds", rec.Rounds()),
		slog.Int("conflicts", rec.MaxConflicts()),
		slog.Float64("dur_ms", float64(dur.Microseconds())/1000),
		slog.String("outcome", outcome),
	)
}

// registerGauges exposes the server's live readings on /metrics.
// Registration replaces —
// last server wins — so tests that build many Servers never collide.
func (s *Server) registerGauges() {
	obs.RegisterGauge("bgpc.svc_workers",
		"Configured concurrent coloring jobs (worker pool size).",
		func() int64 { return int64(s.cfg.Workers) })
	obs.RegisterGauge("bgpc.svc_queue_cap",
		"Configured bound on jobs admitted but not yet running.",
		func() int64 { return int64(s.cfg.QueueDepth) })
	obs.RegisterGauge("bgpc.svc_queue_depth",
		"Jobs admitted but not yet picked up by a worker.",
		func() int64 { return int64(s.pool.depth()) })
	obs.RegisterGauge("bgpc.svc_active_jobs",
		"Jobs currently coloring on workers.",
		func() int64 { return int64(s.pool.active()) })
	obs.RegisterGauge("bgpc.svc_cached_graphs",
		"Graphs resident in the content-hash cache.",
		func() int64 { return int64(s.cache.len()) })
	obs.RegisterGauge("bgpc.svc_bytes_inflight",
		"Estimated bytes of admitted jobs charged against the budget.",
		func() int64 { return s.pool.bytesInflight() })
	obs.RegisterGauge("bgpc.svc_mem_budget",
		"Configured admission byte budget (0 = unlimited).",
		func() int64 { return s.budget.Capacity() })
	// Durability gauges are registered unconditionally (nil-safe): a
	// scrape can always distinguish "no WAL configured" (degraded=1,
	// segments=0) from "WAL healthy" and "WAL tripped its fuse".
	obs.RegisterGauge("bgpc.svc_wal_degraded",
		"1 when acknowledged colorings are not being made durable (no WAL, or its one-way IO fuse tripped).",
		func() int64 {
			if s.durability() == "wal" {
				return 0
			}
			return 1
		})
	obs.RegisterGauge("bgpc.wal_segments",
		"Write-ahead-log segment files on disk (active included).",
		func() int64 {
			if s.cfg.WAL == nil {
				return 0
			}
			return s.cfg.WAL.SegmentCount()
		})
	obs.RegisterGauge("bgpc.wal_fingerprints",
		"Fingerprints the write-ahead log can rehydrate.",
		func() int64 {
			if s.cfg.WAL == nil {
				return 0
			}
			return s.cfg.WAL.FingerprintCount()
		})
}

// handleMetrics serves the Prometheus text exposition: counters,
// registered gauges, and the latency/size histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w)
}

// diagTrigger fires the flight recorder (asynchronously — a profile
// dump must never sit on a request path) with the triggering request's
// own fragment as the bundled trace plus the ring's recent timelines.
func (s *Server) diagTrigger(reason, detail string, t obs.Timeline) {
	if s.cfg.Diag == nil {
		return
	}
	var asm *trace.Assembled
	if t.TraceID != "" {
		asm = &trace.Assembled{
			TraceID:   t.TraceID,
			Fragments: []trace.Fragment{trace.FragmentFromTimeline(t, "bgpcd")},
		}
	}
	s.cfg.Diag.TriggerAsync(reason, detail, asm, s.traces.List())
}

// diagTriggerFromRec is diagTrigger for anomaly sites that hold a live
// recorder (the watchdog) rather than a completed timeline.
func (s *Server) diagTriggerFromRec(reason, detail string, rec *obs.Recorder) {
	if s.cfg.Diag == nil {
		return
	}
	s.diagTrigger(reason, detail, rec.Snapshot())
}

// handleTraceByID serves this process's retained fragments for one
// trace id, wrapped in the same Assembled shape the router's
// /rtr/trace/{traceid} returns — one schema for both endpoints.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	tid := r.PathValue("traceid")
	if !trace.ValidTraceID(tid) {
		writeError(w, http.StatusBadRequest, "malformed trace id %q (want 32 lowercase hex digits)", tid)
		return
	}
	frags := s.traces.Get(tid)
	if len(frags) == 0 {
		writeError(w, http.StatusNotFound,
			"no fragments for trace %s (evicted from the ring, or served elsewhere)", tid)
		return
	}
	writeJSON(w, http.StatusOK, trace.Assembled{TraceID: tid, Fragments: frags})
}

// handleRequests lists the retained timelines, newest first.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.traces.List())
}

// handleRequestByID resolves one request id to its timeline. The 404
// carries the *current* request's id like every other error body.
func (s *Server) handleRequestByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.traces.Request(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			"no timeline for request id %q (the ring keeps the last %d /color requests)", id, s.cfg.TraceRing)
		return
	}
	writeJSON(w, http.StatusOK, t)
}
