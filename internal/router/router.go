package router

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
	"bgpc/internal/obs"
	"bgpc/internal/service"
	"bgpc/internal/trace"
)

// Failpoints in the router's serving path.
const (
	// FPPick sits before candidate selection; err makes the request
	// fail as if no backend were eligible (503).
	FPPick = "router.pick"
	// FPProxy sits before each backend round trip; err counts as a
	// transport failure against that backend (feeds its health).
	FPProxy = "router.proxy"
)

// Config describes a router fleet.
type Config struct {
	// Backends are the bgpcd addresses (host:port) forming the fleet.
	// At least one is required.
	Backends []string
	// VNodes is the ring's virtual-node count per backend; ≤ 0 means
	// DefaultVNodes.
	VNodes int
	// MaxHops caps how many backends one request may visit across
	// failover and spillover; < 1 means 3 (capped at the fleet size).
	// A delta's missed hops do not count, so its walk may cover the
	// whole ring.
	MaxHops int
	// Health tunes the per-backend health machinery.
	Health HealthConfig
	// Transport overrides the backend HTTP transport (tests); nil
	// means a dedicated transport with sane pooling.
	Transport http.RoundTripper
	// MaxRequestBytes caps an inbound body; ≤ 0 means 64 MiB. The
	// backends enforce their own caps; this one only stops the router
	// buffering unbounded bodies for the singleflight key.
	MaxRequestBytes int64
	// Log receives the router's structured request log; nil means
	// slog.Default().
	Log *slog.Logger
	// TraceRing bounds the router's own ring of completed requests,
	// which serves its trace fragments; < 1 means 256. Every routed
	// request is traced, its hops spanned, and filed in the ring.
	TraceRing int
	// Diag, when set, arms the router's flight recorder: a backend
	// being ejected writes one diagnostic bundle.
	Diag *trace.Flight
}

func (c Config) withDefaults() Config {
	if c.MaxHops < 1 {
		c.MaxHops = 3
	}
	if c.MaxHops > len(c.Backends) {
		c.MaxHops = len(c.Backends)
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 64 << 20
	}
	if c.TraceRing < 1 {
		c.TraceRing = 256
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	c.Health = c.Health.withDefaults()
	return c
}

// Router is the fleet front: one Ring for placement, one backend (with
// its health state and prober) per fleet member, one singleflight
// group for dedup. It implements http.Handler with the same job
// surface as a single bgpcd — clients point at the router and cannot
// tell the difference except for the X-BGPC-* routing headers.
type Router struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend
	hc       *http.Client
	sf       *group
	mux      *http.ServeMux
	traces   *trace.Ring

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a Router over cfg.Backends and starts one health prober
// per backend. Close stops the probers.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Backends, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	tr := cfg.Transport
	if tr == nil {
		tr = &http.Transport{MaxIdleConnsPerHost: 32, IdleConnTimeout: 30 * time.Second}
	}
	rt := &Router{
		cfg:      cfg,
		ring:     ring,
		backends: make(map[string]*backend, len(ring.Members())),
		hc:       &http.Client{Transport: tr},
		sf:       newGroup(),
		mux:      http.NewServeMux(),
		traces:   trace.NewRing(cfg.TraceRing, "bgpcrouter"),
	}
	for _, m := range ring.Members() {
		rt.backends[m] = newBackend(m)
	}
	rt.mux.HandleFunc("POST /color", rt.handleColor)
	rt.mux.HandleFunc("POST /color/{fingerprint}/delta", rt.handleDelta)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /rtr/backends", rt.handleBackends)
	rt.mux.HandleFunc("GET /rtr/trace/{traceid}", rt.handleAssembledTrace)
	rt.mux.HandleFunc("GET /debug/trace/{traceid}", rt.handleOwnTrace)

	// Per-backend health gauges. RegisterGauge carries no labels, so
	// each backend gets an indexed series (index = position in the
	// sorted member list); /rtr/backends maps indexes to addresses.
	for i, m := range ring.Members() {
		b := rt.backends[m]
		obs.RegisterGauge(fmt.Sprintf("bgpc.rtr_backend_state_%d", i),
			fmt.Sprintf("Health state of backend %d (0 healthy, 1 suspect, 2 ejected, 3 probing); addresses on /rtr/backends.", i),
			func() int64 { return int64(b.State()) })
	}
	obs.RegisterGauge("bgpc.rtr_backends_eligible",
		"Backends currently eligible for traffic (healthy or suspect).",
		func() int64 { return int64(rt.eligibleCount()) })

	ctx, cancel := context.WithCancel(context.Background())
	rt.cancel = cancel
	for _, m := range ring.Members() {
		b := rt.backends[m]
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			b.prober(ctx, rt.hc, rt.cfg.Health, rt.cfg.Diag, rt.traces)
		}()
	}
	return rt, nil
}

// Close stops the health probers, waiting out any ejection bundle one
// is writing, and idle connections. In-flight proxied requests are not
// interrupted.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
	rt.hc.CloseIdleConnections()
}

// Ring exposes the placement ring (read-only; for tools and tests).
func (rt *Router) Ring() *Ring { return rt.ring }

// BackendState reports the health state of the backend at addr.
func (rt *Router) BackendState(addr string) (BackendState, bool) {
	b, ok := rt.backends[addr]
	if !ok {
		return 0, false
	}
	return b.State(), true
}

func (rt *Router) eligibleCount() int {
	n := 0
	for _, b := range rt.backends {
		if b.eligible() {
			n++
		}
	}
	return n
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// handleHealthz: the router is healthy while at least one backend is
// eligible — a fleet with every member ejected cannot serve.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.eligibleCount() == 0 {
		http.Error(w, "no eligible backend", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w)
}

// handleBackends serves the fleet roster: index → address, health
// state. This is the companion to the indexed rtr_backend_state_<i>
// gauges on /metrics.
func (rt *Router) handleBackends(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Index int    `json:"index"`
		Addr  string `json:"addr"`
		State string `json:"state"`
	}
	var rows []row
	for i, m := range rt.ring.Members() {
		rows = append(rows, row{i, m, rt.backends[m].State().String()})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

// handleColor routes a full coloring job: the routing key is the
// backend graph-cache key the request resolves to, so jobs on one
// graph land on the backend already caching it.
func (rt *Router) handleColor(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req service.ColorRequest
	var key, variant string
	if err := json.Unmarshal(body, &req); err == nil {
		key = service.CacheKey(&req)
		variant = colorVariant(&req)
	} else {
		// Malformed JSON still routes (deterministically, by content);
		// the owning backend issues the 400.
		sum := sha256.Sum256(body)
		key, variant = "raw:"+hex.EncodeToString(sum[:]), "unknown"
	}
	rt.route(w, r, body, key, variant, false)
}

// handleDelta routes a delta-recoloring job by the path fingerprint.
// The base was colored on the owner of its graph cache key, which the
// fingerprint alone cannot name, so a backend's 404 is not final here:
// proxy walks the ring successors, the whole ring if need be, until one
// holds the base.
func (rt *Router) handleDelta(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	fp := r.PathValue("fingerprint")
	variant := "delta"
	var req struct {
		Mode string `json:"mode"`
	}
	if json.Unmarshal(body, &req) == nil {
		if d2, _ := service.ParseMode(req.Mode); d2 {
			variant = "delta/d2"
		}
	}
	rt.route(w, r, body, "fp:"+fp, variant, true)
}

func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := limits.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxRequestBytes), r.ContentLength, rt.cfg.MaxRequestBytes)
	if err != nil {
		rt.writeError(w, r, http.StatusRequestEntityTooLarge, "reading request: %v", err)
		return nil, false
	}
	return body, true
}

// route is the shared serving path: dedup identical concurrent jobs,
// proxy via ring order with failover and spillover, replay the
// backend's response, and observe end-to-end latency under the same
// histogram family a single daemon uses (so one SLO pipeline reads
// either topology). delta makes a backend's 404 non-final (see proxy).
func (rt *Router) route(w http.ResponseWriter, r *http.Request, body []byte, key, variant string, delta bool) {
	start := time.Now()

	// Identical job = same path + byte-identical body. The routing key
	// alone is too coarse (it ignores mode/algorithm/threads); the body
	// hash captures exactly "would produce an identical response".
	sum := sha256.Sum256(body)
	sfKey := r.URL.Path + "\x00" + hex.EncodeToString(sum[:])

	// Resolve the request's identity at ingress — one correlation id
	// and one trace context per request, from one parse of the inbound
	// headers, echoed in the response headers before anything can
	// fail, so every outcome (proxied, replayed rejection, 503
	// no-backend) carries them.
	sc, id, _ := trace.Extract(r.Header.Get("traceparent"), r.Header.Get("X-Request-ID"))
	w.Header().Set("X-Request-ID", id)
	w.Header().Set("X-BGPC-Trace", sc.TraceID)
	rec := obs.NewRecorder(id, 0, 0)
	rec.SetTraceContext(sc.TraceID, sc.SpanID, sc.ParentID)
	rec.Annotate("key", key)
	rec.Annotate("variant", variant)

	hdr := make(http.Header, 4)
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr.Set("Content-Type", ct)
	}
	// The resolved id — not the raw inbound header — travels to the
	// backend, so router and backend agree on the correlation id even
	// when the router minted it. The traceparent the backend sees is
	// NOT the inbound one: proxy mints a child span id per hop so the
	// backend's root span parents to the hop that reached it.
	hdr.Set("X-Request-ID", id)

	res, shared, err := rt.sf.Do(r.Context(), sfKey, func(ctx context.Context) (*flightResult, error) {
		return rt.proxy(ctx, rec, sc, r.Method, r.URL.RequestURI(), hdr, body, key, delta)
	})
	if shared {
		obs.RtrDedupHits.Inc()
		if res != nil {
			// This request never ran anywhere: its span tree is one
			// dedup-follow span pointing at the leader's flight. The
			// leader's hop span id is the join point an assembled view
			// uses to cross from this trace into the leader's.
			hopSpan(rec, "", trace.KindDedup, start,
				"leader_trace", res.traceID, "leader_span", res.spanID, "backend", res.backend)
		}
	}
	if err != nil {
		if r.Context().Err() != nil {
			// Client gone; nothing to write.
			return
		}
		rt.writeError(w, r, http.StatusServiceUnavailable, "%v", err)
		rt.finishTrace(rec, http.StatusServiceUnavailable, start)
		rt.logRequest(r, http.StatusServiceUnavailable, key, variant, shared, time.Since(start))
		return
	}

	h := w.Header()
	for k, vs := range res.header {
		switch k {
		case "X-Request-Id", "X-Bgpc-Trace":
			// Set at ingress from this request's own resolution; the
			// backend's echoes are the same values (we forwarded them),
			// and for a deduped follower the leader's would be wrong.
			continue
		}
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	if shared {
		h.Set("X-BGPC-Deduped", "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)

	obs.SvcLatency.With(variant).Observe(time.Since(start).Seconds())
	rt.finishTrace(rec, res.status, start)
	rt.logRequest(r, res.status, key, variant, shared, time.Since(start))
}

// finishTrace closes the router's slice of the trace: stamp the
// envelope and file it in the ring.
func (rt *Router) finishTrace(rec *obs.Recorder, status int, start time.Time) {
	t := rec.Snapshot()
	t.Status = status
	t.DurNS = time.Since(start).Nanoseconds()
	rt.traces.Add(t)
}

// hopSpan records one cross-process hop span (explicit id — it
// travelled to the backend in a traceparent header) with inline
// key/value attrs.
func hopSpan(rec *obs.Recorder, hopID, kind string, start time.Time, kv ...string) {
	attrs := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		attrs[kv[i]] = kv[i+1]
	}
	rec.AddSpanFull(hopID, "hop", kind, start, time.Since(start), attrs)
}

func (rt *Router) logRequest(r *http.Request, status int, key, variant string, shared bool, dur time.Duration) {
	rt.cfg.Log.LogAttrs(context.Background(), slog.LevelInfo, "route",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("key", key),
		slog.String("variant", variant),
		slog.Bool("deduped", shared),
		slog.Float64("dur_ms", float64(dur.Microseconds())/1000),
	)
}

// errNoBackend reports that every candidate was down or ejected.
var errNoBackend = errors.New("router: no eligible backend")

// proxy walks the ring order for key, applying the failover/spillover
// policy:
//
//   - ineligible (ejected/probing) → skip to successor
//   - transport error or 5xx → passive failure, try successor
//   - 429/413 → the backend is alive but out of budget: remember its
//     rejection, spill to the successor
//   - 404 on a delta → the backend is alive but does not hold the base:
//     remember the miss, walk on to the successor
//   - anything else (2xx, 4xx) → final
//
// If every visited backend rejected with 429/413, the OWNER's original
// rejection (with its Retry-After) is replayed — the owner's backoff
// advice is the authoritative one for this key. A delta rejected
// somewhere and missed elsewhere replays the rejection: a backend looks
// the base up before admission, so the rejecting one holds it. With
// only misses, the first recoverable one (some WAL still holds the
// base) is replayed, else the first definitive one. MaxHops bounds the
// failovers and spillovers so a misbehaving fleet cannot turn one
// request into N. A delta miss is a lookup before admission and does
// not count toward it, so a delta reaches its base in any fleet size.
func (rt *Router) proxy(ctx context.Context, rec *obs.Recorder, sc trace.SpanContext, method, uri string, hdr http.Header, body []byte, key string, delta bool) (*flightResult, error) {
	if err := failpoint.Inject(FPPick); err != nil {
		return nil, fmt.Errorf("%w (injected)", errNoBackend)
	}
	pick := rec.StartSpanKind("pick", trace.KindPick)
	order := rt.ring.Order(key)
	pick.End()
	var firstReject, miss *flightResult
	hops := 0
	rerouted, spilled := false, false
	for _, name := range order {
		if hops >= rt.cfg.MaxHops {
			break
		}
		b := rt.backends[name]
		if !b.eligible() {
			rerouted = true
			continue
		}
		hops++
		// Each attempt is its own child span, and its freshly minted id
		// travels to the backend as the traceparent's parent-id — never
		// the inbound header verbatim. That is what makes the assembled
		// tree show WHICH attempt a backend fragment hangs under: the
		// failed owner's span stays a leaf, the serving successor's
		// span gains the backend's whole subtree.
		hopID := trace.NewSpanID()
		hdr.Set("traceparent", trace.Traceparent(sc.TraceID, hopID))
		t0 := time.Now()
		res, err := rt.send(ctx, b, method, uri, hdr, body)
		if err != nil {
			if ctx.Err() != nil {
				// A canceled caller says nothing of the backend.
				return nil, ctx.Err()
			}
			b.reportFailure(rt.cfg.Health)
			obs.RtrFailovers.Inc()
			rerouted = true
			hopSpan(rec, hopID, trace.KindFailover, t0, "backend", name, "error", err.Error())
			continue
		}
		switch {
		case res.status >= 500:
			// The server answered but is failing; that is a passive
			// failure and grounds to try the successor.
			b.reportFailure(rt.cfg.Health)
			obs.RtrFailovers.Inc()
			rerouted = true
			hopSpan(rec, hopID, trace.KindFailover, t0, "backend", name, "status", strconv.Itoa(res.status))
			continue
		case res.status == http.StatusTooManyRequests || res.status == http.StatusRequestEntityTooLarge:
			// Alive, just out of budget — healthy signal, spill onward.
			b.reportSuccess()
			if firstReject == nil {
				firstReject = res
				res.traceID, res.spanID = sc.TraceID, hopID
			}
			obs.RtrSpillovers.Inc()
			spilled = true
			hopSpan(rec, hopID, trace.KindSpillover, t0, "backend", name, "status", strconv.Itoa(res.status))
			continue
		case delta && res.status == http.StatusNotFound:
			// Alive, just not holding the base. Not a reroute: the
			// successor is where the walk looks next, not a stand-in
			// for a failed owner. Not a hop either: misses never
			// exhaust MaxHops.
			hops--
			b.reportSuccess()
			obs.RtrDeltaMissHops.Inc()
			hopSpan(rec, hopID, trace.KindDeltaMiss, t0, "backend", name, "status", strconv.Itoa(res.status))
			res.traceID, res.spanID = sc.TraceID, hopID
			if miss == nil || (!miss.recoverable() && res.recoverable()) {
				miss = res
			}
			continue
		default:
			b.reportSuccess()
			obs.RtrProxied.Inc()
			hopSpan(rec, hopID, trace.KindProxy, t0, "backend", name, "status", strconv.Itoa(res.status))
			res.traceID, res.spanID = sc.TraceID, hopID
			res.header["X-Bgpc-Backend"] = []string{name}
			if spilled {
				res.header["X-Bgpc-Spilled"] = []string{"1"}
			}
			if rerouted {
				res.header["X-Bgpc-Rerouted"] = []string{"1"}
			}
			return res, nil
		}
	}
	replay := firstReject
	if replay == nil {
		replay = miss
	}
	if replay != nil {
		obs.RtrProxied.Inc()
		replay.header["X-Bgpc-Backend"] = []string{replay.backend}
		return replay, nil
	}
	return nil, errNoBackend
}

// recoverable reports whether a backend's delta 404 carries the
// recoverable hint: its log acknowledged the base but could not
// produce it right now.
func (f *flightResult) recoverable() bool {
	var e service.ErrorResponse
	return json.Unmarshal(f.body, &e) == nil && e.Recoverable
}

// send performs one backend round trip, buffering the response so the
// singleflight layer can fan it out.
func (rt *Router) send(ctx context.Context, b *backend, method, uri string, hdr http.Header, body []byte) (*flightResult, error) {
	if err := failpoint.Inject(FPProxy); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	h := make(map[string][]string, len(resp.Header))
	for k, vs := range resp.Header {
		h[k] = vs
	}
	return &flightResult{status: resp.StatusCode, header: h, body: rb, backend: b.name}, nil
}

// writeError answers in the backends' ErrorResponse shape so clients
// parse router-originated errors (no eligible backend, oversized body)
// exactly like backend ones. 503s carry Retry-After: the fleet being
// fully dark is usually a transient (mid-restart) condition.
func (rt *Router) writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	// route() resolves the correlation id and trace id at ingress and
	// stamps them on the response headers; honor those first so the
	// error body names the same ids the success path would have. Only
	// errors raised before (or outside) route() resolve them here.
	id, tid := w.Header().Get("X-Request-ID"), w.Header().Get("X-BGPC-Trace")
	if id == "" {
		var sc trace.SpanContext
		sc, id, _ = trace.Extract(r.Header.Get("traceparent"), r.Header.Get("X-Request-ID"))
		tid = sc.TraceID
		w.Header().Set("X-Request-ID", id)
		w.Header().Set("X-BGPC-Trace", tid)
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(service.ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: id,
		TraceID:   tid,
	})
}

// colorVariant mirrors the backend's latency-histogram label for a
// color job (algorithm, "d2/"-prefixed in d2 mode) so router-observed
// and daemon-observed latencies land in the same series.
func colorVariant(req *service.ColorRequest) string {
	algo := req.Algorithm
	if algo == "" {
		algo = "N1-N2"
	}
	if d2, _ := service.ParseMode(req.Mode); d2 {
		return "d2/" + algo
	}
	return algo
}
