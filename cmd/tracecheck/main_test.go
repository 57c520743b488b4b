package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bgpc/internal/obs"
	"bgpc/internal/trace"
)

func validTrace() trace.Assembled {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	rt := trace.FragmentFromTimeline(obs.Timeline{
		ID: tid, TraceID: tid, SpanID: "00f067aa0ba902b7", Status: 200,
		Start: time.Unix(1700000000, 0),
		Spans: []obs.Span{{Name: "hop", Kind: trace.KindProxy, ID: "bbbbbbbbbbbbbbbb"}},
	}, "bgpcrouter")
	be := trace.FragmentFromTimeline(obs.Timeline{
		ID: tid, TraceID: tid, SpanID: "cccccccccccccccc", ParentID: "bbbbbbbbbbbbbbbb",
		Status: 200, Start: time.Unix(1700000000, 0),
		Spans: []obs.Span{{Name: "color", Kind: trace.KindColor}},
	}, "bgpcd")
	return trace.Assembled{TraceID: tid, Fragments: []trace.Fragment{rt, be}}
}

func serve(t *testing.T, code int, v any) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestTracecheckAcceptsValidTrace(t *testing.T) {
	url := serve(t, 200, validTrace())
	var out bytes.Buffer
	if err := run([]string{"-min-processes", "2", "-min-spans", "3", url}, &out); err != nil {
		t.Fatalf("valid trace rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "bgpcrouter") || !strings.Contains(out.String(), "bgpcd") {
		t.Fatalf("summary must name both processes:\n%s", out.String())
	}
}

func TestTracecheckEnforcesProcessFloor(t *testing.T) {
	asm := validTrace()
	asm.Fragments = asm.Fragments[:1]
	url := serve(t, 200, asm)
	if err := run([]string{"-min-processes", "2", url}, &bytes.Buffer{}); err == nil {
		t.Fatal("single-process trace must fail -min-processes 2")
	}
}

func TestTracecheckRejectsCycle(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	asm := trace.Assembled{TraceID: tid, Fragments: []trace.Fragment{
		{TraceID: tid, Process: "a", RootID: "aaaaaaaaaaaaaaaa", Start: time.Unix(0, 0),
			Spans: []obs.Span{{Name: "x", ID: "aaaaaaaaaaaaaaaa", Parent: "bbbbbbbbbbbbbbbb"}}},
		{TraceID: tid, Process: "b", RootID: "bbbbbbbbbbbbbbbb", Start: time.Unix(0, 0),
			Spans: []obs.Span{{Name: "y", ID: "bbbbbbbbbbbbbbbb", Parent: "aaaaaaaaaaaaaaaa"}}},
	}}
	url := serve(t, 200, asm)
	if err := run([]string{url}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic trace must fail with a cycle error, got %v", err)
	}
}

func TestTracecheckRejectsFetchFailure(t *testing.T) {
	url := serve(t, 404, map[string]string{"error": "no fragments"})
	if err := run([]string{url}, &bytes.Buffer{}); err == nil {
		t.Fatal("404 fetch must fail")
	}
}
