package router

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"bgpc/internal/trace"
)

// Router-side trace assembly: GET /rtr/trace/{traceid} collects this
// router's own fragments for a trace id, pulls child fragments from
// every fleet member's GET /debug/trace/{traceid} concurrently, and
// returns the merged trace.Assembled. Assembly is read-time work — the
// serving path only ever files local fragments — so a trace lookup
// costs the fleet one debug GET per backend, bounded by a short
// deadline, and a backend that is down or has evicted the trace simply
// contributes nothing.

// assembleTimeout bounds the whole backend fan-out: a diagnostic read
// must not hang on a dead backend longer than a health probe would.
const assembleTimeout = 2 * time.Second

func (rt *Router) handleOwnTrace(w http.ResponseWriter, r *http.Request) {
	tid := r.PathValue("traceid")
	if !trace.ValidTraceID(tid) {
		rt.writeError(w, r, http.StatusBadRequest, "malformed trace id %q (want 32 lowercase hex digits)", tid)
		return
	}
	frags := rt.traces.Get(tid)
	if len(frags) == 0 {
		rt.writeError(w, r, http.StatusNotFound, "no router fragments for trace %s", tid)
		return
	}
	writeTraceJSON(w, trace.Assembled{TraceID: tid, Fragments: frags})
}

func (rt *Router) handleAssembledTrace(w http.ResponseWriter, r *http.Request) {
	tid := r.PathValue("traceid")
	if !trace.ValidTraceID(tid) {
		rt.writeError(w, r, http.StatusBadRequest, "malformed trace id %q (want 32 lowercase hex digits)", tid)
		return
	}
	asm := rt.assemble(r.Context(), tid)
	if len(asm.Fragments) == 0 {
		rt.writeError(w, r, http.StatusNotFound,
			"no fragments anywhere in the fleet for trace %s (evicted from every ring)", tid)
		return
	}
	writeTraceJSON(w, asm)
}

// assemble merges the router's own fragments with every backend's,
// fragments ordered by wall-clock start (per-process clocks — the
// order is presentational; structure lives in span parentage).
func (rt *Router) assemble(ctx context.Context, tid string) trace.Assembled {
	asm := trace.Assembled{TraceID: tid, Fragments: rt.traces.Get(tid)}

	ctx, cancel := context.WithTimeout(ctx, assembleTimeout)
	defer cancel()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range rt.ring.Members() {
		b := rt.backends[m]
		wg.Add(1)
		go func() {
			defer wg.Done()
			frags := rt.fetchFragments(ctx, b, tid)
			if len(frags) == 0 {
				return
			}
			mu.Lock()
			asm.Fragments = append(asm.Fragments, frags...)
			mu.Unlock()
		}()
	}
	wg.Wait()

	sort.Slice(asm.Fragments, func(i, j int) bool {
		return asm.Fragments[i].Start.Before(asm.Fragments[j].Start)
	})
	return asm
}

// fetchFragments pulls one backend's fragments for the trace id.
// Failures of any kind — down backend, non-200, undecodable body —
// contribute an empty slice: assembly is best-effort by design, and a
// partial trace beats no trace during the exact outages it diagnoses.
func (rt *Router) fetchFragments(ctx context.Context, b *backend, tid string) []trace.Fragment {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/debug/trace/"+tid, nil)
	if err != nil {
		return nil
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var remote trace.Assembled
	if err := json.NewDecoder(resp.Body).Decode(&remote); err != nil {
		return nil
	}
	// Paranoia against a confused backend: only fragments actually
	// carrying this trace id merge in.
	out := remote.Fragments[:0]
	for _, f := range remote.Fragments {
		if f.TraceID == tid {
			out = append(out, f)
		}
	}
	return out
}

func writeTraceJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(v)
}
