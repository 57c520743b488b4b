package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bgpc/internal/obs"
	"bgpc/internal/testutil"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog
// output: the access line is written on the request goroutine while
// the test reads from its own.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// get performs one GET against the server with optional header pairs.
func get(t *testing.T, s *Server, path string, headers ...string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest("GET", path, nil)
	for i := 0; i+1 < len(headers); i += 2 {
		r.Header.Set(headers[i], headers[i+1])
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// scrapeGauges reads every gauge on /metrics — the one scrape surface —
// keyed by exposition name.
func scrapeGauges(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	out := map[string]float64{}
	for name, fam := range fams {
		if fam.Type == "gauge" && len(fam.Samples) == 1 {
			out[name] = fam.Samples[0].Value
		}
	}
	return out
}

// TestTraceparentCorrelatesTimelineAndAccessLog is the e2e telemetry
// test of ISSUE 5: a client-sent traceparent id must come back in the
// response header and body, resolve at /debug/requests/{id} to a
// timeline with per-iteration conflict counts, and appear in the
// structured access-log line.
func TestTraceparentCorrelatesTimelineAndAccessLog(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	logBuf := &syncBuffer{}
	s := newTestServer(t, Config{
		Workers: 2,
		Log:     slog.New(slog.NewJSONHandler(logBuf, nil)),
	})

	body, _ := json.Marshal(ColorRequest{Preset: "channel", Scale: 0.1, Algorithm: "V-V", Threads: 2})
	r := httptest.NewRequest("POST", "/color", bytes.NewReader(body))
	r.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Request-ID"); got != traceID {
		t.Fatalf("X-Request-ID = %q, want the traceparent trace-id", got)
	}
	resp := decode(t, w)
	if resp.RequestID != traceID {
		t.Fatalf("body request_id = %q, want %q", resp.RequestID, traceID)
	}

	// The completed timeline resolves by the client's id.
	tw := get(t, s, "/debug/requests/"+traceID)
	if tw.Code != http.StatusOK {
		t.Fatalf("timeline lookup: status %d: %s", tw.Code, tw.Body)
	}
	var tl obs.Timeline
	if err := json.Unmarshal(tw.Body.Bytes(), &tl); err != nil {
		t.Fatalf("decoding timeline: %v\n%s", err, tw.Body)
	}
	if tl.ID != traceID || tl.Status != http.StatusOK || tl.DurNS <= 0 {
		t.Fatalf("timeline header wrong: id=%q status=%d dur=%d", tl.ID, tl.Status, tl.DurNS)
	}
	if tl.Attrs["variant"] != "V-V" || tl.Attrs["outcome"] != "ok" || tl.Attrs["id_source"] != "client" {
		t.Fatalf("timeline attrs: %v", tl.Attrs)
	}
	spans := map[string]bool{}
	for _, sp := range tl.Spans {
		spans[sp.Name] = true
	}
	for _, name := range []string{"decode", "queue", "build", "color", "verify"} {
		if !spans[name] {
			t.Fatalf("timeline missing span %q: %v", name, tl.Spans)
		}
	}
	// Per-iteration events from the runner, including the conflict
	// phase's per-round conflict counts (the acceptance criterion).
	if len(tl.Iters) == 0 {
		t.Fatal("timeline has no per-iteration events")
	}
	sawConflictPhase := false
	for _, it := range tl.Iters {
		if it.Phase == obs.PhaseConflict {
			sawConflictPhase = true
			if it.Round < 1 || it.Conflicts < 0 {
				t.Fatalf("bad conflict event: %+v", it)
			}
		}
	}
	if !sawConflictPhase {
		t.Fatalf("no conflict-phase events in %+v", tl.Iters)
	}

	// One structured access line carrying the same id.
	logLine := ""
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if strings.Contains(line, `"id":"`+traceID+`"`) {
			logLine = line
			break
		}
	}
	if logLine == "" {
		t.Fatalf("no access-log line with the request id:\n%s", logBuf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(logLine), &entry); err != nil {
		t.Fatalf("access line not JSON: %v\n%s", err, logLine)
	}
	if entry["msg"] != "request" || entry["id"] != traceID ||
		entry["variant"] != "V-V" || entry["outcome"] != "ok" ||
		entry["status"].(float64) != http.StatusOK {
		t.Fatalf("access line fields wrong: %v", entry)
	}
	if entry["rounds"].(float64) < 1 {
		t.Fatalf("access line rounds = %v, want >= 1", entry["rounds"])
	}
}

// TestRequestIDOnEveryErrorPath: the correlation id must be present as
// the X-Request-ID header and the request_id body field on 400s, 404s,
// and — through the recover middleware — handler-panic 500s.
func TestRequestIDOnEveryErrorPath(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})

	check := func(t *testing.T, w *httptest.ResponseRecorder, wantStatus int) {
		t.Helper()
		if w.Code != wantStatus {
			t.Fatalf("status %d, want %d: %s", w.Code, wantStatus, w.Body)
		}
		id := w.Header().Get("X-Request-ID")
		if id == "" {
			t.Fatal("no X-Request-ID header")
		}
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("error body not JSON: %v\n%s", err, w.Body)
		}
		if e.RequestID != id {
			t.Fatalf("body request_id %q != header id %q", e.RequestID, id)
		}
	}

	t.Run("malformed json 400", func(t *testing.T) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/color", strings.NewReader("{not json")))
		check(t, w, http.StatusBadRequest)
	})
	t.Run("validation 400", func(t *testing.T) {
		check(t, post(t, s, ColorRequest{}), http.StatusBadRequest)
	})
	t.Run("unknown timeline 404", func(t *testing.T) {
		check(t, get(t, s, "/debug/requests/no-such-id"), http.StatusNotFound)
	})
	t.Run("handler panic 500", func(t *testing.T) {
		arm(t, FPHandleColor+"=panic@1")
		w := post(t, s, ColorRequest{Preset: "channel", Scale: 0.05})
		check(t, w, http.StatusInternalServerError)
	})
	t.Run("adopted id echoes on errors", func(t *testing.T) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/color", strings.NewReader("{not json"))
		r.Header.Set("X-Request-ID", "upstream-7")
		s.ServeHTTP(w, r)
		check(t, w, http.StatusBadRequest)
		if got := w.Header().Get("X-Request-ID"); got != "upstream-7" {
			t.Fatalf("adopted id lost on error path: %q", got)
		}
	})
}

// TestXRequestIDMintedOnEveryPath: non-/color endpoints do not record
// timelines, but still get an id and the header.
func TestXRequestIDMintedOnEveryPath(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/metrics", "/debug/requests"} {
		w := get(t, s, path)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, w.Code)
		}
		if id := w.Header().Get("X-Request-ID"); len(id) != 32 {
			t.Fatalf("%s: X-Request-ID = %q, want a minted 32-hex id", path, id)
		}
	}
}

// TestMetricsEndpointServesValidExposition scrapes /metrics after real
// traffic and validates the payload with the package's strict parser —
// the same check the CI metrics-lint job runs against a live daemon.
func TestMetricsEndpointServesValidExposition(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})
	if w := post(t, s, ColorRequest{Preset: "channel", Scale: 0.1, Algorithm: "N1-N2", Threads: 2}); w.Code != http.StatusOK {
		t.Fatalf("seed request: status %d: %s", w.Code, w.Body)
	}
	if w := post(t, s, ColorRequest{Preset: "channel", Scale: 0.1, Mode: "d2", Threads: 2}); w.Code != http.StatusOK {
		t.Fatalf("seed d2 request: status %d: %s", w.Code, w.Body)
	}

	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, w.Body)
	}

	lat := fams["bgpc_svc_latency_seconds"]
	if lat == nil || lat.Type != "histogram" {
		t.Fatal("no latency histogram family")
	}
	variants := map[string]float64{}
	for _, smp := range lat.Samples {
		if strings.HasSuffix(smp.Name, "_count") {
			variants[smp.Label("variant")] += smp.Value
		}
	}
	if variants["N1-N2"] < 1 || variants["d2/N1-N2"] < 1 {
		t.Fatalf("latency counts by variant = %v, want N1-N2 and d2/N1-N2", variants)
	}
	for _, fam := range []string{"bgpc_svc_queue_wait_seconds", "bgpc_svc_job_bytes",
		"bgpc_svc_color_phase_seconds", "bgpc_svc_conflict_phase_seconds"} {
		if fams[fam] == nil || fams[fam].Type != "histogram" {
			t.Fatalf("missing histogram family %s", fam)
		}
	}
	if g := fams["bgpc_svc_queue_depth"]; g == nil || g.Type != "gauge" {
		t.Fatal("missing queue-depth gauge")
	}
	if c := fams["bgpc_svc_accepted_total"]; c == nil || c.Type != "counter" || c.Samples[0].Value < 2 {
		t.Fatalf("accepted counter wrong: %+v", c)
	}
}

// TestRequestRing: the trace ring is the one store of completed
// requests. Listing is newest-first and bounded; every filed request
// resolves by request id and by trace id, and eviction removes both
// lookups.
func TestRequestRing(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, TraceRing: 2})
	req := ColorRequest{Preset: "channel", Scale: 0.05, Threads: 1}
	ids := make([]string, 3)
	tids := make([]string, 3)
	for i := range ids {
		w := post(t, s, req)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
		ids[i] = w.Header().Get("X-Request-ID")
		tids[i] = w.Header().Get("X-BGPC-Trace")
	}
	w := get(t, s, "/debug/requests")
	var list []obs.Timeline
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatalf("decoding list: %v\n%s", err, w.Body)
	}
	if len(list) != 2 || list[0].ID != ids[2] || list[1].ID != ids[1] {
		t.Fatalf("ring contents wrong: %v (ids %v)", list, ids)
	}
	// Every filed request resolves both ways.
	for _, i := range []int{1, 2} {
		if w := get(t, s, "/debug/requests/"+ids[i]); w.Code != http.StatusOK {
			t.Fatalf("request %d by id: %d", i, w.Code)
		}
		if w := get(t, s, "/debug/trace/"+tids[i]); w.Code != http.StatusOK {
			t.Fatalf("request %d by trace id: %d", i, w.Code)
		}
	}
	// The oldest fell out of the ring, from both lookups.
	if w := get(t, s, "/debug/requests/"+ids[0]); w.Code != http.StatusNotFound {
		t.Fatalf("evicted id still resolves: %d", w.Code)
	}
	if w := get(t, s, "/debug/trace/"+tids[0]); w.Code != http.StatusNotFound {
		t.Fatalf("evicted trace still resolves: %d", w.Code)
	}
}
