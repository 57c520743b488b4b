package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder captures one request's telemetry into a bounded in-memory
// timeline: named spans (parse, queue wait, graph build, the coloring
// run, sequential repair, verification) and one IterEvent per runner
// phase per speculative iteration — the paper's per-round conflict and
// color trajectory, scoped to a single request instead of a whole
// process trace.
//
// A Recorder travels in a context.Context (ContextWithRecorder /
// RecorderFromContext) from the HTTP ingress through the worker pool
// into the core runner (BGPC and D2GC alike), which hands it each
// phase's Event beside its Observer. Every method is nil-safe: a nil
// *Recorder records nothing and allocates nothing, so instrumentation
// points run unconditionally and the disabled path stays a pointer
// test — the same contract as the nil *Observer, and pinned by the
// same zero-alloc test.
//
// A Recorder is safe for concurrent use; its bounds make the worst
// case (a pathological run with thousands of iterations) drop the tail
// and count the drops rather than grow without limit.
type Recorder struct {
	mu    sync.Mutex
	id    string
	start time.Time
	attrs map[string]string
	spans []Span
	iters []IterEvent

	maxSpans, maxIters         int
	droppedSpans, droppedIters int

	// Distributed-trace context (see internal/trace): the trace id this
	// request belongs to, this process's root span id, and the remote
	// parent that reached it. Zero-valued unless the serving layer
	// calls SetTraceContext.
	traceID, spanID, parentID string

	// stats accumulates scheduler-level telemetry (chunk dispatches)
	// from the parallel loops of the run this Recorder is attached to.
	stats LoopStats

	// Emit keeps these over every event, also the ones the iteration
	// bound drops: the highest round, the largest conflict count, and
	// the progress heartbeat — when a conflict phase last lowered the
	// conflict count (minConflicts).
	rounds, maxConflicts, minConflicts int
	progress                           time.Time
}

// DefaultMaxSpans and DefaultMaxIters bound a Recorder when the caller
// passes no explicit limits. A healthy request produces well under ten
// spans and — per the paper's convergence argument — a handful of
// iterations; the headroom exists for livelocked runs the watchdog is
// about to kill.
const (
	DefaultMaxSpans = 64
	DefaultMaxIters = 256
)

// NewRecorder returns a Recorder for one request. id is the request's
// correlation id (see NewRequestID); maxSpans and maxIters bound the
// retained timeline, with values < 1 meaning the package defaults.
func NewRecorder(id string, maxSpans, maxIters int) *Recorder {
	if maxSpans < 1 {
		maxSpans = DefaultMaxSpans
	}
	if maxIters < 1 {
		maxIters = DefaultMaxIters
	}
	return &Recorder{
		id:       id,
		start:    time.Now(),
		maxSpans: maxSpans,
		maxIters: maxIters,
	}
}

// ID returns the recorder's request id ("" when nil).
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// Span is one named interval of a request timeline. Offsets are
// nanoseconds since the timeline's start, so a timeline is
// self-contained and diffable across requests.
//
// The identity fields (ID, Parent) and the Kind classifier exist for
// the distributed-trace export (internal/trace): in-process spans are
// recorded without ids — identity is derived deterministically at
// fragment-export time, which keeps recording allocation-free — while
// cross-process spans (router hops, whose ids travel in traceparent
// headers) carry explicit ids.
type Span struct {
	Name string `json:"name"`
	// Kind classifies the span for structural filtering (see the
	// trace.Kind* constants); "" for plain timeline spans.
	Kind string `json:"kind,omitempty"`
	// ID is the span's 16-hex identity; "" until export derives one.
	ID string `json:"id,omitempty"`
	// Parent is the parent span's id; "" means the fragment root.
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	// Attrs carries per-span facts (backend address, hop outcome);
	// allocated only when set, never on the plain span path.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// IterEvent is one runner phase of one speculative iteration, distilled
// from the Observer's Event stream: the per-round conflict-count and
// color trajectory the paper's Table I plots, plus the phase wall time
// and the scheduler's chunk-dispatch count for the phase.
type IterEvent struct {
	Round      int    `json:"round"`
	Phase      string `json:"phase"`
	Kind       string `json:"kind"`
	Items      int    `json:"items"`
	Conflicts  int    `json:"conflicts"`
	Colors     int    `json:"colors"`
	WallNS     int64  `json:"wall_ns"`
	Dispatches int64  `json:"dispatches,omitempty"`
}

// Timeline is a completed request's telemetry snapshot — the JSON shape
// served by /debug/requests/{id}.
type Timeline struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	// TraceID / SpanID / ParentID mirror the recorder's
	// distributed-trace context (zero unless SetTraceContext ran).
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// Status is the HTTP status the request finished with (0 for
	// timelines snapshotted mid-flight or outside a server).
	Status int `json:"status,omitempty"`
	// DurNS is the end-to-end request duration; 0 until the serving
	// layer stamps it at completion.
	DurNS int64             `json:"dur_ns,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Spans []Span            `json:"spans"`
	Iters []IterEvent       `json:"iters"`
	// DroppedSpans / DroppedIters count entries the bounds discarded.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	DroppedIters int `json:"dropped_iters,omitempty"`
}

// SetTraceContext installs the request's distributed-trace context
// (trace id, this process's root span id, remote parent). Nil-safe.
func (r *Recorder) SetTraceContext(traceID, spanID, parentID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.traceID, r.spanID, r.parentID = traceID, spanID, parentID
	r.mu.Unlock()
}

// TraceID returns the recorder's trace id ("" when nil or untraced).
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// ActiveSpan is an in-flight span handle returned by StartSpanKind. The
// zero value (from a nil Recorder) is valid and End on it is a no-op,
// so callers never branch.
type ActiveSpan struct {
	r     *Recorder
	name  string
	kind  string
	start time.Time
}

// StartSpanKind opens a span named name starting now, classified by
// kind (see the trace.Kind* constants; "" for none). Nil-safe: a nil
// Recorder returns a zero handle and performs no work (not even the
// clock read).
func (r *Recorder) StartSpanKind(name, kind string) ActiveSpan {
	if r == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{r: r, name: name, kind: kind, start: time.Now()}
}

// End closes the span, recording its duration.
func (s ActiveSpan) End() {
	if s.r != nil {
		s.r.add(Span{Name: s.name, Kind: s.kind}, s.start, time.Since(s.start))
	}
}

// AddSpanKind records a span with an explicit start and duration —
// for intervals measured elsewhere, like queue wait between admission
// and worker pickup — classified by kind ("" for none). Nil-safe.
func (r *Recorder) AddSpanKind(name, kind string, start time.Time, dur time.Duration) {
	r.add(Span{Name: name, Kind: kind}, start, dur)
}

// AddSpanFull records a span with explicit identity and attributes —
// the form cross-process spans use: a router hop's id travels to the
// backend in a traceparent header, so it must be the minted one, not a
// derived one. Nil-safe; attrs may be nil.
func (r *Recorder) AddSpanFull(id, name, kind string, start time.Time, dur time.Duration, attrs map[string]string) {
	r.add(Span{Name: name, Kind: kind, ID: id, Attrs: attrs}, start, dur)
}

func (r *Recorder) add(sp Span, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.maxSpans {
		r.droppedSpans++
		return
	}
	sp.StartNS = start.Sub(r.start).Nanoseconds()
	sp.DurNS = dur.Nanoseconds()
	r.spans = append(r.spans, sp)
}

// Annotate attaches (or overwrites) a key/value attribute on the
// timeline — request facts like the algorithm variant, mode, graph
// fingerprint, and final outcome. Nil-safe.
func (r *Recorder) Annotate(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attrs == nil {
		r.attrs = make(map[string]string, 8)
	}
	r.attrs[key] = value
}

// Attr returns the annotation for key ("" when absent or nil).
func (r *Recorder) Attr(key string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attrs[key]
}

// Emit implements Sink: the runners hand it each phase's trace event,
// distilled into a bounded IterEvent.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = max(r.rounds, e.Iter)
	if e.Phase == PhaseConflict {
		r.maxConflicts = max(r.maxConflicts, e.Conflicts)
		if r.progress.IsZero() || e.Conflicts < r.minConflicts {
			r.minConflicts = e.Conflicts
			r.progress = time.Now()
		}
	}
	if len(r.iters) >= r.maxIters {
		r.droppedIters++
		return
	}
	r.iters = append(r.iters, IterEvent{
		Round:      e.Iter,
		Phase:      e.Phase,
		Kind:       e.Kind,
		Items:      e.Items,
		Conflicts:  e.Conflicts,
		Colors:     e.Colors,
		WallNS:     e.WallNS,
		Dispatches: e.Dispatches,
	})
}

// LoopStats returns the recorder's scheduler-telemetry accumulator for
// the parallel loops (nil from a nil Recorder, which the loops treat as
// disabled).
func (r *Recorder) LoopStats() *LoopStats {
	if r == nil {
		return nil
	}
	return &r.stats
}

// Snapshot returns a copy of the timeline so far. The serving layer
// stamps Status and DurNS on the returned value at completion.
func (r *Recorder) Snapshot() Timeline {
	if r == nil {
		return Timeline{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := Timeline{
		ID:           r.id,
		Start:        r.start,
		TraceID:      r.traceID,
		SpanID:       r.spanID,
		ParentID:     r.parentID,
		Spans:        append([]Span(nil), r.spans...),
		Iters:        append([]IterEvent(nil), r.iters...),
		DroppedSpans: r.droppedSpans,
		DroppedIters: r.droppedIters,
	}
	if len(r.attrs) > 0 {
		t.Attrs = make(map[string]string, len(r.attrs))
		for k, v := range r.attrs {
			t.Attrs[k] = v
		}
	}
	return t
}

// Rounds returns the number of speculative iterations recorded so far
// (the highest round seen). With MaxConflicts it is one of the two
// access-log facts the serving layer reports per request; both count
// every event, also past the bound. Nil-safe.
func (r *Recorder) Rounds() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rounds
}

// MaxConflicts returns the largest per-round remaining-conflict count
// observed — the size of the speculative mess the run had to repair.
func (r *Recorder) MaxConflicts() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxConflicts
}

// Progress returns when a conflict-removal phase last lowered the
// run's remaining-conflict count: the heartbeat of the serving layer's
// progress watchdog. It is the zero time before the first conflict
// phase, and from a nil Recorder.
func (r *Recorder) Progress() time.Time {
	if r == nil {
		return time.Time{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progress
}

// LoopStats accumulates scheduler-level telemetry for the parallel
// loops of one run — currently the chunk-dispatch count, the paper's
// proxy for scheduling overhead (each dispatch is a contended atomic
// RMW). A nil *LoopStats is valid and free: the loops call its methods
// unconditionally and a nil receiver branches out immediately, so the
// un-instrumented dispatch path pays one pointer test.
type LoopStats struct {
	dispatches atomic.Int64
}

// CountDispatch records one chunk hand-out. Nil-safe; keep it
// branch-and-return, it sits on the dispatch path.
func (s *LoopStats) CountDispatch() {
	if s != nil {
		s.dispatches.Add(1)
	}
}

// TakeDispatches returns the dispatches recorded since the last Take
// and resets the count — the per-phase delta the runners stamp into
// trace events. Nil-safe (0).
func (s *LoopStats) TakeDispatches() int64 {
	if s == nil {
		return 0
	}
	return s.dispatches.Swap(0)
}

// recorderKey is the context key for the request's Recorder.
type recorderKey struct{}

// ContextWithRecorder returns a context carrying rec. The serving
// layer installs it at ingress; the runners retrieve it once per run.
func ContextWithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFromContext returns the context's Recorder, or nil. The nil
// result is a valid disabled Recorder, so callers use it directly.
func RecorderFromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
