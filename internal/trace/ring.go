package trace

import (
	"sync"

	"bgpc/internal/obs"
)

// Ring is a process's bounded store of completed requests: the one
// store behind GET /debug/requests (by request id), GET
// /debug/trace/{traceid} (as fragments) and the flight recorder's
// recent-request dump. Every completed request is filed and every
// filed request can be exported; fragments are derived when a trace is
// read, so the request path files one value and converts nothing.
// Newest entries evict oldest.
type Ring struct {
	process string // fragment Process name ("bgpcd", "bgpcrouter")

	mu   sync.Mutex
	buf  []obs.Timeline
	next int
	full bool
}

// NewRing returns a ring retaining up to size (≥ 1) requests served by
// the named process.
func NewRing(size int, process string) *Ring {
	return &Ring{process: process, buf: make([]obs.Timeline, size)}
}

// Add files a completed, status- and duration-stamped timeline,
// evicting the oldest entry when full.
func (r *Ring) Add(t obs.Timeline) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// each calls fn on every retained timeline, newest first, until fn
// returns false. The caller holds r.mu.
func (r *Ring) each(fn func(t *obs.Timeline) bool) {
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

// Get returns a fragment for every retained timeline with the trace id,
// oldest first — a trace that fans out inside one process (e.g. a
// replayed request) may hold several. An invalid trace id matches
// nothing (nil slice).
func (r *Ring) Get(traceID string) []Fragment {
	if !ValidTraceID(traceID) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Fragment
	r.each(func(t *obs.Timeline) bool {
		if t.TraceID == traceID {
			out = append(out, FragmentFromTimeline(*t, r.process))
		}
		return true
	})
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Request returns the newest retained timeline served under the
// request id.
func (r *Ring) Request(id string) (obs.Timeline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t obs.Timeline
	found := false
	r.each(func(e *obs.Timeline) bool {
		if e.ID == id {
			t, found = *e, true
		}
		return !found
	})
	return t, found
}

// List returns every retained timeline, newest first. Never nil, so it
// encodes as a JSON array even on an empty ring.
func (r *Ring) List() []obs.Timeline {
	out := []obs.Timeline{}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.each(func(t *obs.Timeline) bool {
		out = append(out, *t)
		return true
	})
	return out
}
