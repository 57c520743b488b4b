package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call — nothing inside the program is
// instrumented. Attrs carries what the call returned that the per-layer
// metrics need (iterations, phase times, allocations, ...).
type span struct {
	ID     int32              `json:"id"`
	Parent int32              `json:"parent"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op. A traced run starts with the
// tracer off, so it can measure the same traffic untraced first.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable turns span recording on.
func (t *tracer) enable() {
	if t != nil {
		t.on.Store(true)
	}
}

// recording reports whether spans are being recorded.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its id (-1 when not recording).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if !t.recording() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id, attaching attrs (which may be nil).
func (t *tracer) end(id int32, attrs map[string]float64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Attrs = attrs
	t.mu.Unlock()
}

// setAttr sets one attribute of span id.
func (t *tracer) setAttr(id int32, key string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].Attrs == nil {
		t.spans[id].Attrs = map[string]float64{}
	}
	t.spans[id].Attrs[key] = v
}

// dur is the length of closed span id.
func (t *tracer) dur(id int32) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].dur()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCtx travels in a request's context so the in-memory transport can
// parent backend spans under the router span of the same operation.
type spanCtx struct {
	op     int64
	parent int32
}

type spanKey struct{}

func withSpan(ctx context.Context, op int64, parent int32) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{op: op, parent: parent})
}

func spanFrom(ctx context.Context) spanCtx {
	if sc, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		return sc
	}
	return spanCtx{op: -1, parent: -1}
}

// mallocs reads the exact cumulative heap-allocation count. It stops
// the world, so it is only used around single calls in the traced run.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
