package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/mtx"
	"bgpc/internal/testutil"
	"bgpc/internal/verify"
)

// tinyMtx is a 3×4 pattern matrix: nets {0,1,2}, {2,3}, {1,3}.
const tinyMtx = `%%MatrixMarket matrix coordinate pattern general
3 4 7
1 1
1 2
1 3
2 3
2 4
3 2
3 4
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), testutil.Scale(5*time.Second))
		defer cancel()
		if err := s.Drain(ctx); err != nil && !strings.Contains(err.Error(), "already in progress") {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

func post(t *testing.T, s *Server, req ColorRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/color", bytes.NewReader(body)))
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder) *ColorResponse {
	t.Helper()
	var resp ColorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return &resp
}

func TestServeInlineMatrix(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})
	w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V", Threads: 2})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode(t, w)
	g, err := mtx.Read(strings.NewReader(tinyMtx))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g, resp.Colors); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.NumColors < 3 {
		t.Fatalf("degraded=%v numColors=%d", resp.Degraded, resp.NumColors)
	}
	if resp.Fingerprint == "" {
		t.Fatal("no fingerprint")
	}
}

func TestServePresetAndCacheHit(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})
	req := ColorRequest{Preset: "movielens", Scale: 0.05, Algorithm: "N1-N2", Threads: 2}

	w1 := post(t, s, req)
	if w1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w1.Code, w1.Body)
	}
	r1 := decode(t, w1)
	if r1.CacheHit {
		t.Fatal("first request claims a cache hit")
	}
	w2 := post(t, s, req)
	r2 := decode(t, w2)
	if !r2.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}
	g, err := gen.Preset("movielens", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g, r2.Colors); err != nil {
		t.Fatal(err)
	}
	if s.CachedGraphs() != 1 {
		t.Fatalf("cached graphs = %d, want 1", s.CachedGraphs())
	}
}

func TestServeD2Mode(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})
	w := post(t, s, ColorRequest{Preset: "channel", Scale: 0.1, Mode: "d2", Threads: 2})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode(t, w)
	b, err := gen.Preset("channel", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ug, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.D2GC(ug, resp.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestServeRejectsMalformedRequests(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  ColorRequest
	}{
		{"neither matrix nor preset", ColorRequest{}},
		{"both matrix and preset", ColorRequest{Matrix: tinyMtx, Preset: "channel"}},
		{"bad matrix", ColorRequest{Matrix: "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n9 9\n"}},
		{"unknown preset", ColorRequest{Preset: "no-such-preset"}},
		{"unknown algorithm", ColorRequest{Preset: "channel", Algorithm: "Z-Z"}},
		{"unknown mode", ColorRequest{Preset: "channel", Mode: "d3"}},
		{"unknown balance", ColorRequest{Preset: "channel", Balance: "B9"}},
		{"negative timeout", ColorRequest{Preset: "channel", TimeoutMS: -5}},
		{"negative scale", ColorRequest{Preset: "channel", Scale: -1}},
		{"d2 on asymmetric matrix", ColorRequest{Matrix: tinyMtx, Mode: "d2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, tc.req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("bad error body %q", w.Body)
			}
		})
	}

	t.Run("bad JSON", func(t *testing.T) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/color", strings.NewReader("{not json")))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", w.Code)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		big := newTestServer(t, Config{Workers: 1, MaxRequestBytes: 64})
		w := post(t, big, ColorRequest{Matrix: tinyMtx})
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", w.Code)
		}
	})
}

func TestServeDegradedOnTinyDeadline(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})
	// A 1ms deadline on a non-trivial graph: the run is cut off, the
	// service must still return a complete valid coloring, flagged
	// degraded — or, if the machine is fast enough, a clean 200.
	w := post(t, s, ColorRequest{Preset: "channel", Scale: 0.5, Algorithm: "V-V", Threads: 1, TimeoutMS: 1})
	switch w.Code {
	case http.StatusOK:
		resp := decode(t, w)
		b, err := gen.Preset("channel", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.BGPC(b, resp.Colors); err != nil {
			t.Fatalf("degraded=%v coloring invalid: %v", resp.Degraded, err)
		}
		// DegradedFinished may legitimately be 0: the cancel can land
		// right after a conflict-free phase, leaving nothing to finish.
		t.Logf("degraded=%v finished=%d", resp.Degraded, resp.DegradedFinished)
	case http.StatusTooManyRequests:
		// Deadline expired before a worker picked the job up — also a
		// legal answer for a 1ms budget.
	default:
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
}

func TestServeDrainReturns503(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := New(Config{Workers: 1})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := post(t, s, ColorRequest{Preset: "channel", Scale: 0.05})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
}

// TestHealthzAndStatsz: /healthz answers, and /metrics carries the
// pool's configured shape and live gauges (the readings the retired
// /statsz endpoint used to serve).
func TestHealthzAndStatsz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 3})
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz: status %d", w.Code)
	}
	g := scrapeGauges(t, s)
	for name, want := range map[string]float64{
		"bgpc_svc_workers":        1,
		"bgpc_svc_queue_cap":      3,
		"bgpc_svc_queue_depth":    0,
		"bgpc_svc_active_jobs":    0,
		"bgpc_svc_cached_graphs":  0,
		"bgpc_svc_bytes_inflight": 0,
	} {
		if got, ok := g[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if w := get(t, s, "/statsz"); w.Code != http.StatusNotFound {
		t.Fatalf("/statsz still routed: %d", w.Code)
	}
}

// TestColorHandlerAllocs pins the allocations of one POST /color for
// the tiny 3×4 matrix through Server.ServeHTTP, as a cache miss and as
// a cache hit: the count, and the bytes, so that a fixed-size buffer
// creeping back onto the request path fails even when it is a single
// allocation. The count ceilings are the counts measured on go1.24,
// linux/amd64; the byte ceilings sit a few KB above the measured
// 16.9 KB (miss) and 15.8 KB (hit), far less than one 64 KiB buffer.
func TestColorHandlerAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	body, err := json.Marshal(ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		allocs   float64
		bytesMax uint64
	}{
		{"miss", Config{Workers: 2, CacheEntries: -1}, 119, 20 << 10},
		{"hit", Config{Workers: 2}, 105, 18 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			serve := func() {
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("POST", "/color", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
			serve() // a hit needs the graph cached
			if got := testing.AllocsPerRun(200, serve); got > tc.allocs {
				t.Errorf("POST /color (%s) allocates %v times, ceiling %v", tc.name, got, tc.allocs)
			}
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				serve()
			}
			runtime.ReadMemStats(&after)
			if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > tc.bytesMax {
				t.Errorf("POST /color (%s) allocates %d bytes, ceiling %d", tc.name, got, tc.bytesMax)
			}
		})
	}
}
