// Package service turns the batch coloring library into a long-lived
// coloring-as-a-service daemon: an HTTP/JSON API that accepts BGPC and
// D2GC jobs, runs them on a bounded worker pool with admission control
// and per-request deadlines, and degrades gracefully — a job whose
// deadline expires mid-speculation returns the best valid coloring the
// runner could finish (sequential repair of the colored prefix plus
// sequential completion) instead of an error.
//
// The request/response shapes are deliberately small:
//
//	POST /color
//	  {"preset": "channel", "scale": 0.25, "algorithm": "N1-N2",
//	   "threads": 4, "timeout_ms": 500}
//	or
//	  {"matrix": "%%MatrixMarket matrix coordinate pattern general\n…",
//	   "mode": "bgpc"}
//
//	200 → {"colors": […], "num_colors": N, "iterations": K,
//	       "degraded": false, "cache_hit": true,
//	       "fingerprint": "…", "wall_ms": 1.8, "queue_ms": 0.1}
//	400 → malformed request (bad JSON, matrix, algorithm, timeout)
//	429 → queue full, or the deadline expired before the job started
//	500 → server-side failure (e.g. the speculative runner hit its
//	      iteration cap without converging) — never a request defect
//	503 → draining (shutdown in progress)
//
// Backpressure is explicit: the queue is bounded, overflow is an
// immediate 429 with Retry-After, and shutdown drains admitted jobs
// before the process exits.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/failpoint"
	"bgpc/internal/gen"
	"bgpc/internal/limits"
	"bgpc/internal/mtx"
	"bgpc/internal/obs"
	"bgpc/internal/trace"
	"bgpc/internal/verify"
	"bgpc/internal/wal"
)

// Config sizes the daemon. The zero value picks serving-friendly
// defaults; see the field comments.
type Config struct {
	// Workers is the number of concurrent coloring jobs; values < 1
	// mean GOMAXPROCS. Note each job may itself use several threads —
	// Workers × Threads is the oversubscription bound.
	Workers int
	// QueueDepth bounds jobs admitted but not yet running; values < 1
	// mean 2×Workers. Beyond it, requests get 429.
	QueueDepth int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// values ≤ 0 mean 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline; values ≤ 0 mean 2m.
	MaxTimeout time.Duration
	// MaxRequestBytes bounds the request body (the matrix travels
	// inline); values ≤ 0 mean 32 MiB.
	MaxRequestBytes int64
	// CacheEntries bounds the content-hash graph cache; 0 means 64,
	// negative disables caching.
	CacheEntries int
	// MaxThreads caps the per-job thread count a client may request;
	// values < 1 mean GOMAXPROCS.
	MaxThreads int
	// QuarantineAfter is the number of worker panics on the same graph
	// fingerprint before that fingerprint is refused (429 with
	// Retry-After) for QuarantineFor; 0 means 3, negative disables
	// quarantining.
	QuarantineAfter int
	// QuarantineFor is the quarantine cool-down; values ≤ 0 mean 30s.
	QuarantineFor time.Duration
	// MemBudget bounds the estimated bytes of concurrently admitted
	// jobs (the byte dimension of admission control — slots alone do
	// not stop a queue of huge matrices from OOMing the process). 0
	// derives the budget from GOMEMLIMIT (half of it; see
	// limits.DefaultBudgetBytes), which is 'unlimited' when no limit is
	// set; negative disables budgeting explicitly. Jobs that can never
	// fit get 413, jobs that do not fit right now get 429 + Retry-After.
	MemBudget int64
	// MaxJobBytes caps a single job's estimated footprint independently
	// of the shared budget; values ≤ 0 mean no separate cap (the budget
	// capacity still applies).
	MaxJobBytes int64
	// ParseLimits caps what an inline MatrixMarket document may declare
	// (rows, cols, nnz, line length). Zero-valued fields use the
	// library defaults; see limits.DefaultParseLimits.
	ParseLimits limits.ParseLimits
	// WatchdogWindow, when positive, arms a per-job progress watchdog:
	// a run that makes no conflict-count progress for a full window is
	// canceled and completed by the sequential fallback (degraded 200,
	// livelock flagged). 0 disables the watchdog.
	WatchdogWindow time.Duration
	// Log receives structured logs: one access line per request (id,
	// variant, status, rounds, conflicts, duration, outcome) plus one
	// warning per contained fault (worker panic stacks, quarantine
	// transitions, watchdog trips, the WAL fuse). Nil discards.
	Log *slog.Logger
	// WAL, when set, makes acknowledged colorings durable: every
	// verified full coloring and delta application is appended to the
	// write-ahead log before the 200, the boot-time warm-up re-verifies
	// recovered colorings into the cache, and a delta addressed at an
	// evicted-but-logged fingerprint is rehydrated instead of 404ing.
	// The server never closes the log — the owner (cmd/bgpcd) does.
	// Nil means in-memory only (X-BGPC-Durability: none).
	WAL *wal.Log
	// TraceRing bounds the ring of completed /color requests behind
	// GET /debug/requests, GET /debug/trace/{traceid} and the flight
	// recorder; < 1 means 256. Every /color request is traced and
	// filed, and every filed request exports its trace.
	TraceRing int
	// Diag, when set, arms the anomaly-triggered flight recorder:
	// watchdog trips, the WAL fuse, and DiagLatency breaches each
	// write one bounded diagnostic bundle (profiles, metrics, recent
	// timelines, the triggering trace) into its directory.
	Diag *trace.Flight
	// DiagLatency, when positive (and Diag is set), triggers a bundle
	// whenever a request takes at least this long end to end.
	DiagLatency time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers < 1 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.QueueDepth < 1 {
		out.QueueDepth = 2 * out.Workers
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 30 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 2 * time.Minute
	}
	if out.MaxRequestBytes <= 0 {
		out.MaxRequestBytes = 32 << 20
	}
	if out.CacheEntries == 0 {
		out.CacheEntries = 64
	}
	if out.MaxThreads < 1 {
		out.MaxThreads = runtime.GOMAXPROCS(0)
	}
	if out.QuarantineAfter == 0 {
		out.QuarantineAfter = 3
	}
	if out.QuarantineFor <= 0 {
		out.QuarantineFor = 30 * time.Second
	}
	if out.MemBudget == 0 {
		out.MemBudget = limits.DefaultBudgetBytes()
	}
	if out.MemBudget < 0 {
		out.MemBudget = 0
	}
	if out.TraceRing < 1 {
		out.TraceRing = 256
	}
	out.ParseLimits = out.ParseLimits.WithDefaults()
	return out
}

// logf emits one operator-facing fault line as a structured warning on
// the server's logger (a no-op with the default discard logger).
func (s *Server) logf(format string, args ...any) {
	s.log.Warn(fmt.Sprintf(format, args...))
}

// ColorRequest is the POST /color body. Exactly one of Matrix or
// Preset must be set.
type ColorRequest struct {
	// Matrix is an inline MatrixMarket coordinate document (rows =
	// nets, columns = vertices to color).
	Matrix string `json:"matrix,omitempty"`
	// Preset names a built-in synthetic workload; Scale sizes it
	// (0 means 1.0).
	Preset string  `json:"preset,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	// Mode is "bgpc" (default) or "d2" (distance-2 on a structurally
	// symmetric matrix).
	Mode string `json:"mode,omitempty"`
	// Algorithm is a paper schedule name (default "N1-N2").
	Algorithm string `json:"algorithm,omitempty"`
	// Threads is the per-job worker count (default 1, capped by the
	// server's MaxThreads).
	Threads int `json:"threads,omitempty"`
	// Balance is "U" (default), "B1" or "B2".
	Balance string `json:"balance,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 means
	// the server default, negative is rejected. Values above the
	// server's MaxTimeout are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ColorResponse is the 200 body.
type ColorResponse struct {
	// Colors is the complete valid coloring (vertex order).
	Colors []int32 `json:"colors"`
	// NumColors and MaxColor summarize the color set.
	NumColors int   `json:"num_colors"`
	MaxColor  int32 `json:"max_color"`
	// Iterations is the number of speculative rounds that ran.
	Iterations int `json:"iterations"`
	// Degraded reports that the deadline expired mid-run and the
	// result was completed by the sequential fallback: still valid,
	// but without the parallel schedule's color quality guarantees.
	Degraded bool `json:"degraded"`
	// DegradedFinished counts the vertices the sequential fallback
	// colored (0 when Degraded is false).
	DegradedFinished int `json:"degraded_finished,omitempty"`
	// CacheHit reports the graph came from the content-hash cache.
	CacheHit bool `json:"cache_hit"`
	// Fingerprint is the graph's CSR content hash (hex), stable across
	// requests that describe the same incidence structure.
	Fingerprint string `json:"fingerprint"`
	// WallMS is coloring wall time; QueueMS is time spent admitted but
	// not yet running — the two components of request latency a client
	// can act on (raise deadline vs. back off).
	WallMS  float64 `json:"wall_ms"`
	QueueMS float64 `json:"queue_ms"`
	// Livelock reports that the progress watchdog (not the client's
	// deadline) triggered the degradation: the speculative runner was
	// live but making no conflict-count progress. Implies Degraded.
	Livelock bool `json:"livelock,omitempty"`
	// RequestID echoes the request's correlation id (also in the
	// X-Request-ID response header): the key into /debug/requests/{id}
	// and the daemon's access log.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the distributed-trace id this request ran under (also
	// in the X-BGPC-Trace response header): the key into
	// /debug/trace/{traceid} here and /rtr/trace/{traceid} on the
	// router. Every POST /color is traced, so it is always set.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorResponse is the body of every non-200 status. Retryable
// rejections (429) additionally carry the queue depth and the
// Retry-After the server chose, so clients can modulate their backoff
// on load they can observe rather than guess.
type ErrorResponse struct {
	Error string `json:"error"`
	// QueueDepth is the number of jobs admitted but not yet running at
	// rejection time (429 responses only).
	QueueDepth int `json:"queue_depth,omitempty"`
	// RetryAfterS mirrors the Retry-After header in seconds (429
	// responses only).
	RetryAfterS int `json:"retry_after_s,omitempty"`
	// RequestID is the failing request's correlation id — quote it when
	// reporting the failure; it resolves in the daemon's access log and
	// (for jobs that ran) /debug/requests/{id}.
	RequestID string `json:"request_id,omitempty"`
	// Recoverable qualifies a delta-path 404: true means the write-ahead
	// log acknowledged this fingerprint but could not rehydrate it for
	// this request (recovery in progress, transient IO trouble) — the
	// fingerprint is still durable and clients should NOT unlearn it.
	// False (or absent) is a definitive miss: re-color from scratch and
	// resume the chain from the new fingerprint.
	Recoverable bool `json:"recoverable,omitempty"`
	// TraceID is the distributed-trace id, when the failing request ran
	// under one (mirrors the X-BGPC-Trace header) — failed requests'
	// traces are exactly the ones worth looking up.
	TraceID string `json:"trace_id,omitempty"`
}

// Server is the coloring daemon: an http.Handler backed by the worker
// pool and graph cache. Create with New, shut down with Drain.
type Server struct {
	cfg    Config
	pool   *pool
	budget *limits.Budget
	cache  *graphCache
	quar   *quarantine
	mux    *http.ServeMux
	log    *slog.Logger
	traces *trace.Ring
	start  time.Time
	warmed int // (fingerprint, mode) colorings re-verified from the WAL at boot
	// walWarn limits the WAL degrade report to the fuse's one trip.
	walWarn sync.Once
}

// New returns a ready Server with cfg's defaults applied and its
// worker pool running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	budget := limits.NewBudget(cfg.MemBudget)
	s := &Server{
		cfg:    cfg,
		pool:   newPool(cfg.Workers, cfg.QueueDepth, budget),
		budget: budget,
		cache:  newGraphCache(cfg.CacheEntries),
		quar:   newQuarantine(cfg.QuarantineAfter, cfg.QuarantineFor),
		mux:    http.NewServeMux(),
		log:    cfg.Log,
		traces: trace.NewRing(cfg.TraceRing, "bgpcd"),
		start:  time.Now(),
	}
	if s.log == nil {
		s.log = discardLogger()
	}
	s.mux.HandleFunc("POST /color", s.handleColor)
	s.mux.HandleFunc("POST /color/{fingerprint}/delta", s.handleDelta)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/requests", s.handleRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}", s.handleRequestByID)
	s.mux.HandleFunc("GET /debug/trace/{traceid}", s.handleTraceByID)
	s.registerGauges()
	s.warmed = s.warmFromWAL()
	return s
}

// ServeHTTP implements http.Handler. It is the telemetry ingress —
// every request gets a correlation id (adopted from traceparent /
// X-Request-ID or minted), echoed in the X-Request-ID response header
// before any handler runs so error bodies on every path can carry it;
// POST /color additionally gets an obs.Recorder in its context, which
// carries the request's trace context, receives the runners' phase
// events, and which finishRequest files in the trace ring. It is also the outermost containment boundary for
// request goroutines: a panic anywhere in a handler
// becomes a structured 500 (best-effort — headers may already be out)
// instead of relying on net/http's connection-killing recover.
// http.ErrAbortHandler is re-raised per its contract.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// One parse of the inbound headers resolves both the correlation id
	// and the trace context: a valid traceparent is adopted (its parent
	// span id becomes this process's remote parent), otherwise the
	// request id doubles as the trace id when it has that shape.
	sc, id, adopted := trace.Extract(r.Header.Get("traceparent"), r.Header.Get("X-Request-ID"))
	w.Header().Set("X-Request-ID", id)
	// The durability promise rides on every response: "wal" while
	// acknowledged colorings are being logged, "none" when no log is
	// configured or the degraded fuse has tripped (disk full / IO
	// error) and the daemon is serving from memory alone.
	w.Header().Set("X-BGPC-Durability", s.durability())
	sw := &statusWriter{ResponseWriter: w}

	var rec *obs.Recorder
	if r.Method == http.MethodPost && (r.URL.Path == "/color" || strings.HasPrefix(r.URL.Path, "/color/")) {
		rec = obs.NewRecorder(id, 0, 0)
		if adopted {
			rec.Annotate("id_source", "client")
		}
		// The trace id rides the X-BGPC-Trace response header on every
		// outcome.
		w.Header().Set("X-BGPC-Trace", sc.TraceID)
		rec.SetTraceContext(sc.TraceID, sc.SpanID, sc.ParentID)
		r = r.WithContext(obs.ContextWithRecorder(r.Context(), rec))
	}

	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				panic(p)
			}
			obs.SvcPanics.Inc()
			s.logf("service: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			rec.Annotate("outcome", "panic")
			writeError(sw, http.StatusInternalServerError, "internal: handler panicked: %v", p)
		}
		s.finishRequest(sw, r, rec, id, start)
	}()
	s.mux.ServeHTTP(sw, r)
}

// Drain stops admitting jobs and blocks until every admitted job has
// finished (or ctx expires), then stops the workers. Call it after the
// HTTP listener has stopped accepting new connections.
func (s *Server) Drain(ctx context.Context) error { return s.pool.drain(ctx) }

// QueueDepth reports jobs admitted but not yet running.
func (s *Server) QueueDepth() int { return s.pool.depth() }

// ActiveJobs reports jobs currently coloring.
func (s *Server) ActiveJobs() int { return s.pool.active() }

// CachedGraphs reports the number of graphs in the content-hash cache.
func (s *Server) CachedGraphs() int { return s.cache.len() }

// BytesInFlight reports the estimated bytes of admitted jobs (the
// svc_bytes_inflight gauge); 0 when budgeting is disabled.
func (s *Server) BytesInFlight() int64 { return s.pool.bytesInflight() }

// MemBudget reports the configured byte budget; 0 means unlimited.
func (s *Server) MemBudget() int64 { return s.budget.Capacity() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// decodeColorRequest parses and validates a POST /color body into a
// jobSpec. Factored off the handler so the fuzz battery can drive the
// full decode+validate path without a listener or pool; the returned
// status is the HTTP code to use when err is non-nil (always 4xx —
// malformed input must never be a server fault).
func (s *Server) decodeColorRequest(raw []byte) (*jobSpec, int, error) {
	var req ColorRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err)
	}
	return s.resolve(&req)
}

func (s *Server) handleColor(w http.ResponseWriter, r *http.Request) {
	if err := failpoint.Inject(FPHandleColor); err != nil {
		writeError(w, http.StatusInternalServerError, "injected handler fault: %v", err)
		return
	}
	rec := obs.RecorderFromContext(r.Context())
	decode := rec.StartSpanKind("decode", trace.KindDecode)
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	spec, status, err := s.decodeColorRequest(raw)
	decode.End()
	if err != nil {
		s.writeStatus(w, status, err)
		return
	}
	rec.Annotate("variant", spec.variant)
	rec.Annotate("graph", spec.key)
	s.serveJob(w, r, spec.key, spec.timeout, spec.estBytes, func(ctx context.Context, queued time.Duration) (stamper, int, error) {
		return s.execute(ctx, spec, queued)
	})
}

// readBody reads the request body under MaxRequestBytes, answering the
// 400 or 413 itself when it cannot.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := limits.ReadAll(io.LimitReader(r.Body, s.cfg.MaxRequestBytes+1), r.ContentLength, s.cfg.MaxRequestBytes+1)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return nil, false
	}
	if int64(len(raw)) > s.cfg.MaxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", s.cfg.MaxRequestBytes)
		return nil, false
	}
	return raw, true
}

// stamper is a response body that echoes the request's correlation ids.
type stamper interface {
	stamp(requestID, traceID string)
}

func (r *ColorResponse) stamp(id, tid string) { r.RequestID, r.TraceID = id, tid }
func (r *DeltaResponse) stamp(id, tid string) { r.RequestID, r.TraceID = id, tid }
func (r *ErrorResponse) stamp(id, tid string) { r.RequestID, r.TraceID = id, tid }

// writeStamped writes body under status with the correlation ids
// stamped in. ServeHTTP sets them as response headers before any
// handler runs, so every path — the recover middleware's 500 included —
// carries them without threading the ids around.
func writeStamped(w http.ResponseWriter, status int, body stamper) {
	body.stamp(w.Header().Get("X-Request-ID"), w.Header().Get("X-BGPC-Trace"))
	writeJSON(w, status, body)
}

// serveJob is the admission-to-response path of every job route: the
// quarantine gate, the per-request deadline, pool admission, the wait
// for the worker, panic containment and the response. run executes on
// a pooled worker with the job's context and the time it spent queued;
// it returns the 200 body, or the status and error to answer with.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, key string, timeout time.Duration, estBytes int64,
	run func(ctx context.Context, queued time.Duration) (stamper, int, error)) {
	rec := obs.RecorderFromContext(r.Context())
	// Fault containment gate: inputs that keep crashing workers are
	// refused during their cool-down so retry storms cannot re-poison
	// the pool.
	if blocked, retry := s.quar.check(key); blocked {
		obs.SvcQuarantined.Inc()
		rec.Annotate("outcome", "quarantined")
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Round(time.Second).Seconds())))
		writeError(w, http.StatusTooManyRequests, "graph %s is quarantined after repeated worker panics; retry in %s", key, retry.Round(time.Second))
		return
	}

	// Per-request deadline: the job context inherits the client
	// connection's context, so a dropped client cancels the run too.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	j := &job{ctx: ctx, done: make(chan struct{}), bytes: estBytes}
	var out struct {
		resp   stamper
		status int
		err    error
	}
	enqueued := time.Now()
	j.run = func(ctx context.Context) {
		// Queue wait — admission to worker pickup — is the backpressure
		// component of latency; it gets its own span and histogram so
		// "slow" decomposes into "queued" vs. "coloring".
		wait := time.Since(enqueued)
		obs.SvcQueueWait.Observe(wait.Seconds())
		rec.AddSpanKind("queue", trace.KindQueue, enqueued, wait)
		if ctx.Err() != nil {
			// Expired (or abandoned) while queued: nothing ran, so there
			// is no partial state worth degrading — tell the client to
			// back off and retry.
			out.status = http.StatusTooManyRequests
			out.err = fmt.Errorf("deadline expired before the job could start (queued %s)", wait.Round(time.Microsecond))
			return
		}
		out.resp, out.status, out.err = run(ctx, wait)
	}
	if err := s.pool.submit(j); err != nil {
		switch {
		case errors.Is(err, errDraining):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, limits.ErrTooLarge):
			// The job's estimated footprint exceeds the whole budget:
			// no amount of retrying helps, refuse it outright.
			writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		default:
			// Queue full or byte budget momentarily exhausted — both
			// retryable backpressure.
			s.writeRetryable(w, err)
		}
		return
	}
	obs.SvcJobBytes.Observe(float64(estBytes))

	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone: the job context is canceled with it; the worker
		// will finish its (now trivial) run shortly. Nothing to write.
		<-j.done
		return
	}
	if j.panicked != nil {
		// The job crashed on its worker; the worker survived and the
		// pool accounting is already settled (runJob's defer). Turn the
		// panic into a structured 500, log the worker stack, and count
		// a quarantine strike against this graph.
		obs.SvcPanics.Inc()
		rec.Annotate("outcome", "panic")
		s.logf("service: job panicked (graph %s): %v\n%s", key, j.panicked, j.stack)
		if s.quar.strike(key) {
			s.logf("service: quarantining graph %s for %s after repeated panics", key, s.cfg.QuarantineFor)
		}
		writeError(w, http.StatusInternalServerError, "internal: job panicked: %v", j.panicked)
		return
	}
	if out.err != nil {
		s.writeStatus(w, out.status, out.err)
		return
	}
	s.quar.clear(key)
	writeStamped(w, http.StatusOK, out.resp)
}

// jobSpec is a fully validated request, ready to execute. It carries
// the raw graph material (matrix text or preset name), not a built
// graph: parsing and CSR construction are expensive enough that they
// must run on a pooled worker, inside admission control, or N
// concurrent clients posting distinct 32 MiB matrices would trigger N
// concurrent builds on handler goroutines and defeat the backpressure
// model.
type jobSpec struct {
	key      string // graph-cache key
	matrix   string // inline MatrixMarket body ("" when preset is set)
	preset   string
	scale    float64
	d2mode   bool
	opts     core.Options
	algo     string
	variant  string // histogram/annotation label: algo, "d2/"-prefixed in d2 mode
	timeout  time.Duration
	estBytes int64 // estimated peak footprint, charged against the budget
}

// resolve validates everything cheap about the request — field shapes,
// algorithm, mode, limits — and produces a jobSpec. Graph construction
// is deliberately deferred to execute (on a worker). The returned
// status is the HTTP code to use when err is non-nil.
func (s *Server) resolve(req *ColorRequest) (*jobSpec, int, error) {
	if (req.Matrix == "") == (req.Preset == "") {
		return nil, http.StatusBadRequest, errors.New("give exactly one of matrix or preset")
	}
	timeout, err := s.deadline(req.TimeoutMS)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}

	algo := req.Algorithm
	if algo == "" {
		algo = "N1-N2"
	}
	opts, err := core.ParseAlgorithm(algo)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	switch strings.ToUpper(req.Balance) {
	case "", "U", "NONE":
		opts.Balance = core.BalanceNone
	case "B1":
		opts.Balance = core.BalanceB1
	case "B2":
		opts.Balance = core.BalanceB2
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("unknown balance %q (want U, B1, or B2)", req.Balance)
	}
	opts.Threads = req.Threads
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	if opts.Threads > s.cfg.MaxThreads {
		opts.Threads = s.cfg.MaxThreads
	}

	d2mode, err := ParseMode(req.Mode)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}

	spec := &jobSpec{
		matrix:  req.Matrix,
		preset:  req.Preset,
		d2mode:  d2mode,
		opts:    opts,
		algo:    algo,
		timeout: timeout,
	}
	if req.Matrix != "" {
		spec.key = matrixKey(req.Matrix)
	} else {
		spec.scale = req.Scale
		if spec.scale == 0 {
			spec.scale = 1.0
		}
		if spec.scale < 0 {
			return nil, http.StatusBadRequest, fmt.Errorf("negative scale %g", spec.scale)
		}
		spec.key = presetKey(req.Preset, spec.scale)
	}

	// Memory governance: estimate the job's footprint from its declared
	// shape — the matrix header (never trusted further than its size
	// line, which ParseLimits caps) or the preset's predicted
	// dimensions — before anything is built. Oversized jobs are refused
	// here, on the handler goroutine, for the cost of a header peek.
	shape, status, err := s.jobShape(spec)
	if err != nil {
		return nil, status, err
	}
	shape.D2 = d2mode
	shape.Threads = opts.Threads
	if spec.estBytes, status, err = s.jobBytes(shape); err != nil {
		return nil, status, err
	}

	spec.variant = algo
	if d2mode {
		spec.variant = "d2/" + algo
	}
	return spec, 0, nil
}

// deadline resolves a request's timeout_ms: 0 means the server
// default, negative is rejected, and anything above MaxTimeout clamps
// to it. The comparison runs in milliseconds, before any conversion, so
// no value overflows into a short or negative deadline.
func (s *Server) deadline(ms int64) (time.Duration, error) {
	switch {
	case ms < 0:
		return 0, fmt.Errorf("negative timeout_ms %d", ms)
	case ms == 0:
		return s.cfg.DefaultTimeout, nil
	case ms > s.cfg.MaxTimeout.Milliseconds():
		return s.cfg.MaxTimeout, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// ParseMode reports whether a request's mode field selects distance-2
// coloring: "" and "bgpc" mean BGPC, "d2" and "d2gc" mean D2GC, in any
// letter case. Exported so the fleet router labels requests the way
// the daemon does.
func ParseMode(mode string) (d2 bool, err error) {
	switch strings.ToLower(mode) {
	case "", "bgpc":
		return false, nil
	case "d2", "d2gc":
		return true, nil
	}
	return false, fmt.Errorf("unknown mode %q (want bgpc or d2)", mode)
}

// modeName is the name a coloring is retained and logged under.
func modeName(d2 bool) string {
	if d2 {
		return "d2"
	}
	return "bgpc"
}

// jobBytes estimates a job's peak footprint from its declared shape
// and applies the per-job cap. The returned status applies when err is
// non-nil.
func (s *Server) jobBytes(shape limits.Shape) (int64, int, error) {
	est, err := limits.Estimate(shape)
	if err != nil {
		// Estimation itself failed (injected chaos fault): treat the
		// job as unbudgetable-right-now, a retryable condition.
		return 0, http.StatusTooManyRequests, err
	}
	if s.cfg.MaxJobBytes > 0 && est > s.cfg.MaxJobBytes {
		obs.SvcTooLarge.Inc()
		return 0, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%w: job needs ~%d bytes, per-job cap is %d", limits.ErrTooLarge, est, s.cfg.MaxJobBytes)
	}
	return est, 0, nil
}

// jobShape derives the declared Shape of spec's graph material. Matrix
// jobs peek only the MatrixMarket header under the configured parse
// caps; preset jobs use the generator's predicted dimensions.
func (s *Server) jobShape(spec *jobSpec) (limits.Shape, int, error) {
	if spec.matrix != "" {
		info, err := mtx.PeekInfo(spec.matrix, s.cfg.ParseLimits)
		switch {
		case errors.Is(err, limits.ErrTooLarge):
			obs.SvcTooLarge.Inc()
			return limits.Shape{}, http.StatusRequestEntityTooLarge, err
		case err != nil:
			return limits.Shape{}, http.StatusBadRequest, err
		}
		return limits.Shape{Rows: info.Rows, Cols: info.Cols, NNZ: info.NNZ, Symmetric: info.Symmetric}, 0, nil
	}
	rows, cols, nnz, err := gen.EstimateDims(spec.preset, spec.scale)
	if err != nil {
		return limits.Shape{}, http.StatusBadRequest, err
	}
	return limits.Shape{Rows: rows, Cols: cols, NNZ: nnz}, 0, nil
}

// buildGraph resolves spec's graph material to a cache entry, parsing
// or generating on a miss. It runs on a pooled worker so that graph
// construction — often the dominant cost for cold matrices — is
// bounded by the same admission control as the coloring itself.
func (s *Server) buildGraph(spec *jobSpec) (*cacheEntry, bool, error) {
	entry, hit := s.cache.get(spec.key)
	if hit {
		return entry, true, nil
	}
	var g *bipartite.Graph
	var err error
	if spec.matrix != "" {
		g, err = mtx.ParseString(spec.matrix, s.cfg.ParseLimits)
	} else {
		// TryPreset contains generator panics: a build that blows up
		// is a rejected request, not a crashed worker.
		g, err = gen.TryPreset(spec.preset, spec.scale)
	}
	if err != nil {
		return nil, false, fmt.Errorf("building graph: %w", err)
	}
	return s.cache.put(spec.key, g), false, nil
}

// execute runs a validated job on a worker: graph construction (cache
// miss), the coloring run, and result verification. It never returns
// 5xx for predictable conditions: bad graph material is 400, and a
// deadline mid-run degrades to the sequential completion path
// (serveJob answers a deadline that expired while queued with 429).
// Iteration exhaustion — a
// server-side algorithm limit the client cannot fix — is 500.
func (s *Server) execute(ctx context.Context, spec *jobSpec, queued time.Duration) (*ColorResponse, int, error) {
	rec := obs.RecorderFromContext(ctx)
	build := rec.StartSpanKind("build", trace.KindBuild)
	entry, hit, err := s.buildGraph(spec)
	build.End()
	if err != nil {
		if errors.Is(err, limits.ErrTooLarge) {
			// The data section outgrew what its own header declared —
			// the header peek at admission could not have caught it.
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	// The symmetric-structure requirement of d2 mode is a property of
	// the request's matrix; surface its failure as a client error.
	kg, err := entry.kernelGraph(spec.d2mode)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("d2 mode: %w", err)
	}

	// Progress watchdog: cancel the run (cause errLivelock) if the
	// request Recorder, which ServeHTTP gives every /color request,
	// sees conflict counts stop improving for a full window. Armed
	// after graph construction so queue wait and parse/build time never
	// count against progress.
	runCtx := ctx
	if s.cfg.WatchdogWindow > 0 {
		wctx, wcancel := context.WithCancelCause(ctx)
		defer wcancel(nil)
		stop := watchJob(wctx, wcancel, rec, s.cfg.WatchdogWindow)
		defer stop()
		runCtx = wctx
	}

	start := time.Now()
	var res *core.Result
	color := rec.StartSpanKind("color", trace.KindColor)
	res, err = core.ColorCtx(runCtx, kg, spec.opts)
	color.End()
	if res != nil {
		// Per-request phase totals, the deployable form of the paper's
		// "coloring dominates, conflict removal tails off" breakdown.
		obs.SvcColorPhase.With(spec.variant).Observe(res.ColoringTime.Seconds())
		obs.SvcConflictPhase.With(spec.variant).Observe(res.ConflictTime.Seconds())
	}

	resp := &ColorResponse{
		CacheHit:    hit,
		Fingerprint: entry.fp,
		QueueMS:     float64(queued.Microseconds()) / 1000,
	}
	switch {
	case err == nil:
		obs.SvcCompleted.Inc()
		rec.Annotate("outcome", "ok")
	case errors.Is(err, core.ErrCanceled):
		// Graceful degradation: the canceled runner already repaired
		// the colored prefix; finish the rest sequentially so the
		// client still gets a complete valid coloring.
		repair := rec.StartSpanKind("repair", trace.KindRepair)
		resp.DegradedFinished = core.FinishSequential(kg, res.Colors)
		repair.End()
		resp.Degraded = true
		obs.SvcDegraded.Inc()
		rec.Annotate("outcome", "degraded")
		if errors.Is(context.Cause(runCtx), errLivelock) {
			resp.Livelock = true
			rec.Annotate("outcome", "livelock")
			s.logf("service: watchdog canceled job (graph %s): no progress within %s", spec.key, s.cfg.WatchdogWindow)
			s.diagTriggerFromRec("watchdog",
				fmt.Sprintf("no conflict-count progress within %s (graph %s)", s.cfg.WatchdogWindow, spec.key), rec)
		}
	case errors.Is(err, core.ErrNoFixedPoint):
		return nil, http.StatusInternalServerError, fmt.Errorf("coloring failed: %w", err)
	case errors.Is(err, failpoint.ErrInjected):
		// An injected runner fault is a server-side failure by
		// definition — the client's request was fine.
		return nil, http.StatusInternalServerError, fmt.Errorf("coloring failed: %w", err)
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("coloring failed: %w", err)
	}

	// A service must not hand out invalid colorings: the check is one
	// O(nnz) pass, far cheaper than the run itself.
	vspan := rec.StartSpanKind("verify", trace.KindVerify)
	err = entry.verify(spec.d2mode, res.Colors)
	vspan.End()
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("internal: produced an invalid coloring: %w", err)
	}

	// Retain the verified coloring as warm-start material for the delta
	// API (POST /color/{fingerprint}/delta), and make the acceptance
	// durable before the 200 goes out. Stored per mode: a bgpc coloring
	// is not a valid distance-2 warm start.
	mode := modeName(spec.d2mode)
	entry.storeColoring(mode, res.Colors)
	s.walAppend(rec, entry, mode, res.Colors, 0, nil)

	resp.Colors = res.Colors
	resp.Iterations = res.Iterations
	resp.WallMS = float64(time.Since(start).Microseconds()) / 1000
	cs := verify.Stats(res.Colors)
	resp.NumColors = cs.NumColors
	resp.MaxColor = cs.MaxColor
	return resp, 0, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the structured error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeStamped(w, status, &ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeStatus answers a failed request with err under status: the
// retryable 429 shape for 429, the plain error body otherwise.
func (s *Server) writeStatus(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		s.writeRetryable(w, err)
		return
	}
	writeError(w, status, "%v", err)
}

// writeRetryable answers a retryable rejection (queue full, byte budget
// exhausted, deadline expired while queued) with 429, an adaptive
// Retry-After scaled by queue pressure, and the observed queue depth in
// the body — the contract internal/client's backoff consumes.
func (s *Server) writeRetryable(w http.ResponseWriter, err error) {
	depth := s.pool.depth()
	retry := 1 + depth/s.cfg.Workers
	if retry > 30 {
		retry = 30
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeStamped(w, http.StatusTooManyRequests,
		&ErrorResponse{Error: err.Error(), QueueDepth: depth, RetryAfterS: retry})
}
