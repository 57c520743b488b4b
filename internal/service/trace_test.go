package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpc/internal/testutil"
	"bgpc/internal/trace"
)

func getTrace(t *testing.T, s *Server, tid string) (int, trace.Assembled) {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/debug/trace/"+tid, nil))
	var asm trace.Assembled
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), &asm); err != nil {
			t.Fatalf("decoding %q: %v", w.Body.String(), err)
		}
	}
	return w.Code, asm
}

func TestTraceFragmentExportedAndServed(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})

	w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"})
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	tid := w.Header().Get("X-BGPC-Trace")
	if !trace.ValidTraceID(tid) {
		t.Fatalf("X-BGPC-Trace %q is not a trace id", tid)
	}
	if resp := decode(t, w); resp.TraceID != tid {
		t.Fatalf("body trace id %q != header %q", resp.TraceID, tid)
	}
	// Default sampling keeps everything, so the fragment must be
	// retrievable immediately (export happens before the response).
	code, asm := getTrace(t, s, tid)
	if code != 200 {
		t.Fatalf("GET /debug/trace/%s -> %d", tid, code)
	}
	if err := asm.Validate(); err != nil {
		t.Fatalf("exported fragment invalid: %v", err)
	}
	if got := asm.Processes(); len(got) != 1 || got[0] != "bgpcd" {
		t.Fatalf("processes: %v", got)
	}
	for _, kind := range []string{trace.KindServer, trace.KindQueue, trace.KindColor, trace.KindVerify} {
		if len(asm.FindSpans(kind)) == 0 {
			t.Errorf("fragment missing a %q span", kind)
		}
	}
}

// TestTraceAdoptsInboundTraceparent: every request is kept, so a
// caller's unsampled (flags 00) traceparent is adopted and exported
// like any other — the fragment's root parents to the caller's span.
func TestTraceAdoptsInboundTraceparent(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const hop = "00f067aa0ba902b7"
	body := `{"matrix":` + jsonString(tinyMtx) + `,"algorithm":"V-V"}`
	req := httptest.NewRequest("POST", "/color", strings.NewReader(body))
	req.Header.Set("traceparent", "00-"+tid+"-"+hop+"-00")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-BGPC-Trace"); got != tid {
		t.Fatalf("trace id %q, want adopted %q", got, tid)
	}
	code, asm := getTrace(t, s, tid)
	if code != 200 {
		t.Fatalf("trace of a flags-00 request not exported: %d", code)
	}
	if asm.Fragments[0].ParentID != hop {
		t.Fatalf("fragment parent %q, want the inbound hop %q", asm.Fragments[0].ParentID, hop)
	}
}

// TestTraceRingBelowOneMeans256: a ring size below one is the default
// ring, not a tracing-off mode — requests still carry a trace id, the
// ring keeps the last 256 and every kept request exports its trace.
func TestTraceRingBelowOneMeans256(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, TraceRing: -1})
	body, err := json.Marshal(ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"})
	if err != nil {
		t.Fatal(err)
	}
	var first, last string
	for i := 0; i < 257; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/color", bytes.NewReader(body)))
		if w.Code != 200 {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
		last = w.Header().Get("X-BGPC-Trace")
		if !trace.ValidTraceID(last) {
			t.Fatalf("request %d: X-BGPC-Trace %q is not a trace id", i, last)
		}
		if i == 0 {
			first = last
		}
	}
	if n := len(s.traces.List()); n != 256 {
		t.Fatalf("ring holds %d requests, want 256", n)
	}
	if code, _ := getTrace(t, s, first); code != 404 {
		t.Fatalf("the oldest request must be evicted, got %d", code)
	}
	if code, asm := getTrace(t, s, last); code != 200 || asm.Validate() != nil {
		t.Fatalf("newest trace not exported: %d", code)
	}
}

func TestErrorBodyCarriesTraceID(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/color", strings.NewReader("{not json")))
	if w.Code != 400 {
		t.Fatalf("status %d", w.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.TraceID == "" || er.TraceID != w.Header().Get("X-BGPC-Trace") {
		t.Fatalf("error body trace id %q must echo header %q", er.TraceID, w.Header().Get("X-BGPC-Trace"))
	}
}

func TestDiagBundleOnSlowRequest(t *testing.T) {
	dir := t.TempDir()
	fl, err := trace.NewFlight(trace.FlightConfig{Dir: dir, Process: "bgpcd-test", Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Diag: fl, DiagLatency: time.Nanosecond})
	w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"})
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	// The latency trigger fires async off the serving path; poll.
	deadline := time.Now().Add(testutil.Scale(5 * time.Second))
	for {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var found string
		for _, e := range ents {
			if e.IsDir() && strings.Contains(e.Name(), "slow_request") && !strings.HasSuffix(e.Name(), ".partial") {
				found = e.Name()
			}
		}
		if found != "" {
			// The bundle must carry the triggering trace.
			var asm trace.Assembled
			b, err := os.ReadFile(filepath.Join(dir, found, "trace.json"))
			if err != nil {
				t.Fatalf("bundle %s missing trace.json: %v", found, err)
			}
			if err := json.Unmarshal(b, &asm); err != nil {
				t.Fatal(err)
			}
			if asm.TraceID != w.Header().Get("X-BGPC-Trace") {
				t.Fatalf("bundle trace %s != request trace %s", asm.TraceID, w.Header().Get("X-BGPC-Trace"))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no slow_request diagnostic bundle appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// BenchmarkTraceOverhead measures the full /color request path under
// the one tracing regime: every request traced and filed in the ring.
// Fragments are built when /debug/trace reads them, so this is the
// whole per-request cost of tracing. EXPERIMENTS.md carries a measured
// table from this benchmark.
func BenchmarkTraceOverhead(b *testing.B) {
	body, err := json.Marshal(ColorRequest{Matrix: tinyMtx, Algorithm: "V-V"})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/color", bytes.NewReader(body)))
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
