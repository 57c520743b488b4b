package trace

import (
	"sync"
	"time"

	"bgpc/internal/obs"
)

// Ring is a process's bounded store of completed requests: the one
// store behind GET /debug/requests (every retained request, by request
// id), GET /debug/trace/{traceid} (kept requests only, as fragments)
// and the flight recorder's recent-request dump. Each entry is the
// request's completed timeline plus the sampler's keep bit; fragments
// are derived when a trace is read, so the request path files one
// value and converts nothing. Newest entries evict oldest.
//
// A nil *Ring is a valid disabled ring: Add and the lookups are no-ops,
// so the serving layer calls them unconditionally and tracing-off
// deployments pay a pointer test.
type Ring struct {
	process string // fragment Process name ("bgpcd", "bgpcrouter")
	sampler Sampler

	mu   sync.Mutex
	buf  []entry
	next int
	full bool
}

type entry struct {
	t    obs.Timeline
	kept bool
}

// NewRing returns a ring retaining up to size requests served by the
// named process. sample is the head-sampling ratio for traces the
// process originates (0 means 1.0, negative means 0); errors always
// tail-keep, and so does any request at least slow long when slow > 0.
// size < 1 returns nil — the disabled ring.
func NewRing(size int, process string, sample float64, slow time.Duration) *Ring {
	if size < 1 {
		return nil
	}
	if sample == 0 {
		sample = 1
	}
	return &Ring{
		process: process,
		sampler: Sampler{HeadRatio: sample, KeepErrors: true, SlowNS: int64(slow)},
		buf:     make([]entry, size),
	}
}

// Extract resolves an inbound request's span context under the ring's
// head sampler; see the package-level Extract.
func (r *Ring) Extract(traceparent, fallbackTraceID string) SpanContext {
	return Extract(traceparent, fallbackTraceID, r.sampler)
}

// Add files a completed, status- and duration-stamped timeline,
// evicting the oldest entry when full. It makes the export decision —
// head-sampled traces always export, the rest only when a tail
// condition (5xx, slow) fired — and counts it in obs.TraceKept or
// obs.TraceDropped. The drop path is arithmetic plus a counter bump; a
// timeline without a valid trace id is retained for request-id lookup
// but never exported. Nil-safe.
func (r *Ring) Add(t obs.Timeline) {
	if r == nil {
		return
	}
	kept := ValidTraceID(t.TraceID) && r.sampler.Keep(t.Sampled, t.Status, t.DurNS)
	if kept {
		obs.TraceKept.Inc()
	} else {
		obs.TraceDropped.Inc()
	}
	r.mu.Lock()
	r.buf[r.next] = entry{t: t, kept: kept}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// each calls fn on every retained entry, newest first, until fn
// returns false. The caller holds r.mu.
func (r *Ring) each(fn func(e *entry) bool) {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	for i := 1; i <= n; i++ {
		if !fn(&r.buf[(r.next-i+len(r.buf))%len(r.buf)]) {
			return
		}
	}
}

// Get returns a fragment for every kept entry with the trace id,
// oldest first — a trace that fans out inside one process (e.g. a
// replayed request) may hold several. Nil-safe (nil slice).
func (r *Ring) Get(traceID string) []Fragment {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Fragment
	r.each(func(e *entry) bool {
		if e.kept && e.t.TraceID == traceID {
			out = append(out, FragmentFromTimeline(e.t, r.process))
		}
		return true
	})
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Request returns the newest retained timeline served under the
// request id, kept or not. Nil-safe (false).
func (r *Ring) Request(id string) (obs.Timeline, bool) {
	if r == nil {
		return obs.Timeline{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var t obs.Timeline
	found := false
	r.each(func(e *entry) bool {
		if e.t.ID == id {
			t, found = e.t, true
		}
		return !found
	})
	return t, found
}

// List returns every retained timeline, newest first. Never nil, so it
// encodes as a JSON array even on the disabled ring.
func (r *Ring) List() []obs.Timeline {
	out := []obs.Timeline{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.each(func(e *entry) bool {
		out = append(out, e.t)
		return true
	})
	return out
}

// Len returns the number of retained requests. Nil-safe (0).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}
