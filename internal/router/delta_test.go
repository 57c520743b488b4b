package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"bgpc/internal/mtx"
	"bgpc/internal/obs"
	"bgpc/internal/service"
	"bgpc/internal/testutil"
	"bgpc/internal/trace"
)

// postDelta sends a delta against fp through the router.
func postDelta(rt *Router, fp, body string) *httptest.ResponseRecorder {
	path := "/color/" + fp + "/delta"
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.URL = &url.URL{Path: path}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	return w
}

// TestE2EDeltaChainThroughRouter: a color and five chained deltas sent
// through a 3-backend router must all be served, as deltas, by the
// backend that colored the root. The root document is picked so that
// the first delta's ring owner is NOT that backend, so the chain only
// holds if the router walks past the owner's 404.
func TestE2EDeltaChainThroughRouter(t *testing.T) {
	deltaChain(t, newRealFleet(t, 3), 1)
}

// TestE2EDeltaChainFiveBackends: in a fleet larger than MaxHops the
// root's backend sits 4th or 5th in the first delta's ring order, so
// the chain holds only if missed hops do not count toward MaxHops.
func TestE2EDeltaChainFiveBackends(t *testing.T) {
	fl := newRealFleet(t, 5)
	if fl.rt.cfg.MaxHops >= 4 {
		t.Fatalf("MaxHops %d; the test needs a root beyond it", fl.rt.cfg.MaxHops)
	}
	deltaChain(t, fl, 3)
}

// deltaChain colors a root document whose backend sits at ring
// position ≥ minPos in its fingerprint's order, then sends five
// chained deltas through the router. Each must be a 200 served by the
// root's backend without X-BGPC-Rerouted: no delta falls back.
func deltaChain(t *testing.T, fl *realFleet, minPos int) {
	t.Helper()
	g, err := mtx.Read(strings.NewReader(tinyMtxRouter))
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("%016x", g.Fingerprint())

	// A comment line changes the cache key (a hash of the document
	// text) but not the graph, so it moves the color's ring owner and
	// leaves the first delta's owner where it is.
	var doc, root string
	fpOrder := fl.rt.Ring().Order("fp:" + fp)
	for k := 0; k < 64 && root == ""; k++ {
		doc = strings.Replace(tinyMtxRouter, "general\n", fmt.Sprintf("general\n%% variant %d\n", k), 1)
		owner := fl.rt.Ring().Order(service.CacheKey(&service.ColorRequest{Matrix: doc}))[0]
		if slices.Index(fpOrder, owner) >= minPos {
			root = owner
		}
	}
	if root == "" {
		t.Fatalf("no document variant whose color owner is at position ≥ %d of its fingerprint's order", minPos)
	}

	job, err := json.Marshal(map[string]any{"matrix": doc, "algorithm": "V-V"})
	if err != nil {
		t.Fatal(err)
	}
	w := postColor(t, fl.rt, string(job), nil)
	var cr service.ColorResponse
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &cr) != nil {
		t.Fatalf("root color: status %d: %s", w.Code, w.Body)
	}
	if cr.Fingerprint != fp || w.Header().Get("X-BGPC-Backend") != root {
		t.Fatalf("root color: fingerprint %s on %s, want %s on %s",
			cr.Fingerprint, w.Header().Get("X-BGPC-Backend"), fp, root)
	}

	missBefore := obs.RtrDeltaMissHops.Load()
	for i, body := range []string{
		`{"insert":[[0,3]]}`,
		`{"insert":[[1,0]]}`,
		`{"remove":[[0,3]]}`,
		`{"insert":[[2,2]]}`,
		`{"remove":[[1,0]]}`,
	} {
		w := postDelta(fl.rt, fp, body)
		if w.Code != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", i, w.Code, w.Body)
		}
		if be := w.Header().Get("X-BGPC-Backend"); be != root {
			t.Fatalf("delta %d served by %s, want the root's backend %s", i, be, root)
		}
		if w.Header().Get("X-BGPC-Rerouted") != "" {
			t.Fatalf("delta %d marked rerouted; a walked miss is not a failover", i)
		}
		var dr service.DeltaResponse
		if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
			t.Fatalf("delta %d: %v: %s", i, err, w.Body)
		}
		if dr.BaseFingerprint != fp || dr.Fingerprint == "" || dr.Fingerprint == fp {
			t.Fatalf("delta %d: base %s → %s, want base %s and a new fingerprint", i, dr.BaseFingerprint, dr.Fingerprint, fp)
		}
		fp = dr.Fingerprint
	}
	if obs.RtrDeltaMissHops.Load() == missBefore {
		t.Fatal("no missed hop counted, yet the first delta's owner did not hold the base")
	}
}

// TestRouterDeltaMissWalk pins the walk's edge cases on scripted
// backends answering a delta with 200, a definitive 404, a recoverable
// 404 or a 429, in ring order of the delta's key.
func TestRouterDeltaMissWalk(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const (
		ok   = "ok"
		miss = "miss"
		rec  = "recoverable"
		busy = "busy"
	)
	answer := func(kind string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			switch kind {
			case ok:
				io.WriteString(w, `{"colors":[0],"num_colors":1}`)
			case miss:
				w.WriteHeader(http.StatusNotFound)
				io.WriteString(w, `{"error":"not cached"}`)
			case rec:
				w.WriteHeader(http.StatusNotFound)
				io.WriteString(w, `{"error":"retry shortly","recoverable":true}`)
			case busy:
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, `{"error":"queue full"}`)
			}
		}
	}
	for _, tc := range []struct {
		name string
		// answers[i] is what the i-th member of the key's ring order
		// answers.
		answers []string
		status  int
		// served is the ring position named in X-BGPC-Backend.
		served      int
		recoverable bool
		missHops    int64
	}{
		{"owner holds the base", []string{ok, miss, miss}, 200, 0, false, 0},
		{"successor holds the base", []string{miss, ok, miss}, 200, 1, false, 1},
		{"last member holds the base", []string{miss, miss, ok}, 200, 2, false, 2},
		{"no member holds the base", []string{miss, miss, miss}, 404, 0, false, 3},
		{"recoverable miss wins", []string{miss, rec, miss}, 404, 1, true, 3},
		{"first recoverable miss wins", []string{rec, miss, rec}, 404, 0, true, 3},
		// A backend looks the base up before admission, so the one
		// that rejected holds it: its 429 beats every miss.
		{"rejection beats misses", []string{miss, busy, miss}, 429, 1, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet, rt := newFleet(t, 3)
			addrs := byAddr(fleet)
			const fp = "0123456789abcdef"
			order := rt.Ring().Order("fp:" + fp)
			for i, name := range order {
				addrs[name].set(answer(tc.answers[i]))
			}

			// Enough walked requests to eject a backend if missed hops
			// counted as failures.
			reps := 2 * rt.cfg.Health.FailAfter
			before := obs.RtrDeltaMissHops.Load()
			var w *httptest.ResponseRecorder
			for i := 0; i < reps; i++ {
				// Distinct bodies, so no request dedups onto another.
				w = postDelta(rt, fp, fmt.Sprintf(`{"insert":[[0,%d]]}`, i))
				if w.Code != tc.status {
					t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body)
				}
			}
			if got := obs.RtrDeltaMissHops.Load() - before; got != tc.missHops*int64(reps) {
				t.Fatalf("miss hops counted %d, want %d", got, tc.missHops*int64(reps))
			}
			if be := w.Header().Get("X-BGPC-Backend"); be != order[tc.served] {
				t.Fatalf("X-BGPC-Backend %s, want ring position %d (%s)", be, tc.served, order[tc.served])
			}
			if w.Header().Get("X-BGPC-Rerouted") != "" {
				t.Fatal("walked delta marked X-BGPC-Rerouted")
			}
			if tc.status == http.StatusNotFound {
				var er service.ErrorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
					t.Fatal(err)
				}
				if er.Recoverable != tc.recoverable {
					t.Fatalf("replayed 404 recoverable=%v, want %v", er.Recoverable, tc.recoverable)
				}
			}
			for _, name := range order {
				if s, _ := rt.BackendState(name); s != StateHealthy || !rt.backends[name].eligible() {
					t.Fatalf("backend %s is %v after missed hops; a miss is a healthy answer", name, s)
				}
			}

			// One delta-miss hop span per missed hop of the last request.
			code, asm := getAssembled(t, rt, "/debug/trace/"+w.Header().Get("X-BGPC-Trace"))
			if code != http.StatusOK {
				t.Fatalf("router trace: status %d", code)
			}
			spans := asm.FindSpans(trace.KindDeltaMiss)
			if int64(len(spans)) != tc.missHops {
				t.Fatalf("%d delta-miss spans, want %d", len(spans), tc.missHops)
			}
			for _, sp := range spans {
				if sp.Attrs["status"] != "404" {
					t.Fatalf("delta-miss span %+v lacks status 404", sp)
				}
			}
		})
	}
}

// TestRouterColorNotFoundIsFinal: only the delta route walks on a 404.
func TestRouterColorNotFoundIsFinal(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 3)
	for _, f := range fleet {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "not found", http.StatusNotFound)
		})
	}
	before := obs.RtrDeltaMissHops.Load()
	w := postColor(t, rt, jobBody, nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", w.Code)
	}
	var hits int64
	for _, f := range fleet {
		hits += f.hits.Load()
	}
	if hits != 1 || obs.RtrDeltaMissHops.Load() != before {
		t.Fatalf("a /color 404 visited %d backends and counted %d miss hops; want 1 and 0",
			hits, obs.RtrDeltaMissHops.Load()-before)
	}
}
