package client

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/service"
)

func okResponse() service.ColorResponse {
	return service.ColorResponse{Colors: []int32{0, 1, 0}, NumColors: 2}
}

// fakeDaemon scripts a sequence of responses; after the script runs out
// it keeps serving the last entry.
type fakeDaemon struct {
	t       *testing.T
	script  []func(w http.ResponseWriter)
	calls   atomic.Int64
	lastReq atomic.Pointer[service.ColorRequest]
}

func (d *fakeDaemon) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.ColorRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			d.t.Errorf("daemon: bad request body: %v", err)
		}
		d.lastReq.Store(&req)
		n := int(d.calls.Add(1)) - 1
		if n >= len(d.script) {
			n = len(d.script) - 1
		}
		d.script[n](w)
	})
}

func respondOK(w http.ResponseWriter) {
	json.NewEncoder(w).Encode(okResponse())
}

func respondStatus(code int, retryAfter string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(service.ErrorResponse{Error: "scripted", QueueDepth: 7})
	}
}

func fastClient(baseURL string) *Client {
	return New(Config{
		BaseURL:     baseURL,
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		rand:        rand.New(rand.NewSource(1)),
	})
}

func TestColorFirstTry(t *testing.T) {
	d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){respondOK}}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	c := fastClient(srv.URL)
	resp, err := c.Color(context.Background(), service.ColorRequest{Preset: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NumColors != 2 || len(resp.Colors) != 3 {
		t.Fatalf("resp = %+v", resp)
	}
	if got := d.calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1", got)
	}
	if got := d.lastReq.Load(); got == nil || got.Preset != "x" {
		t.Fatalf("request not delivered: %+v", got)
	}
}

func TestColorRetriesTemporaryFailures(t *testing.T) {
	d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){
		respondStatus(http.StatusTooManyRequests, "0"),
		respondStatus(http.StatusServiceUnavailable, ""),
		respondOK,
	}}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	c := fastClient(srv.URL)
	resp, err := c.Color(context.Background(), service.ColorRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NumColors != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if got := d.calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3 (two retries)", got)
	}
}

func TestColorPermanentFailureNoRetry(t *testing.T) {
	for _, code := range []int{http.StatusBadRequest, http.StatusRequestEntityTooLarge} {
		d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){respondStatus(code, "")}}
		srv := httptest.NewServer(d.handler())
		c := fastClient(srv.URL)
		_, err := c.Color(context.Background(), service.ColorRequest{})
		srv.Close()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != code {
			t.Fatalf("code %d: err = %v", code, err)
		}
		if apiErr.Temporary() {
			t.Fatalf("code %d reported temporary", code)
		}
		if apiErr.QueueDepth != 7 {
			t.Fatalf("code %d: queue depth not decoded: %+v", code, apiErr)
		}
		if got := d.calls.Load(); got != 1 {
			t.Fatalf("code %d: calls = %d, want 1 (no retry)", code, got)
		}
	}
}

func TestColorGivesUpAfterMaxAttempts(t *testing.T) {
	d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){respondStatus(http.StatusTooManyRequests, "")}}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	c := fastClient(srv.URL)
	_, err := c.Color(context.Background(), service.ColorRequest{})
	if err == nil {
		t.Fatal("expected failure")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v", err)
	}
	if got := d.calls.Load(); got != 4 {
		t.Fatalf("calls = %d, want MaxAttempts=4", got)
	}
}

func TestColorHonorsRetryAfter(t *testing.T) {
	d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){
		respondStatus(http.StatusTooManyRequests, "1"),
		respondOK,
	}}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	c := fastClient(srv.URL) // backoff capped at 5ms: any longer sleep came from Retry-After
	start := time.Now()
	if _, err := c.Color(context.Background(), service.ColorRequest{}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < time.Second {
		t.Fatalf("retry slept %v, want >= Retry-After of 1s", took)
	}
}

func TestColorContextCancelDuringBackoff(t *testing.T) {
	d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){respondStatus(http.StatusTooManyRequests, "30")}}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	c := fastClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Color(ctx, service.ColorRequest{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancel did not interrupt the Retry-After sleep (took %v)", took)
	}
}

func TestAttemptFailpoint(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){respondOK}}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	if err := failpoint.ArmFromSpec(FPAttempt + "=err@2"); err != nil {
		t.Fatal(err)
	}
	c := fastClient(srv.URL)
	resp, err := c.Color(context.Background(), service.ColorRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NumColors != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	// The two injected faults consumed attempts without reaching the
	// network; only the third attempt arrived.
	if got := d.calls.Load(); got != 1 {
		t.Fatalf("daemon calls = %d, want 1", got)
	}
}

func TestBackoffBounds(t *testing.T) {
	c := New(Config{
		BaseURL:     "http://unused",
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  time.Second,
		rand:        rand.New(rand.NewSource(42)),
	})
	for attempt := 1; attempt <= 10; attempt++ {
		cap := 100 * time.Millisecond << uint(attempt-1)
		if cap > time.Second || cap <= 0 {
			cap = time.Second
		}
		for i := 0; i < 100; i++ {
			d := c.backoff(attempt, nil)
			if d <= 0 || d > cap {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, cap)
			}
		}
	}
}

func TestBackoffPrefersLargerRetryAfter(t *testing.T) {
	c := New(Config{
		BaseURL:     "http://unused",
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		rand:        rand.New(rand.NewSource(42)),
	})
	err := &APIError{Status: 429, RetryAfter: 3 * time.Second}
	if d := c.backoff(1, err); d != 3*time.Second {
		t.Fatalf("backoff = %v, want server's 3s", d)
	}
	// A zero Retry-After falls back to jittered backoff.
	err.RetryAfter = 0
	if d := c.backoff(1, err); d <= 0 || d > 2*time.Millisecond {
		t.Fatalf("backoff = %v, want jittered <= cap", d)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in       string
		min, max time.Duration
	}{
		{"", 0, 0},
		{"5", 5 * time.Second, 5 * time.Second},
		{"0", 0, 0},
		{"-3", 0, 0},
		{"garbage", 0, 0},
		{time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat), 8 * time.Second, 11 * time.Second},
		{time.Now().Add(-10 * time.Second).UTC().Format(http.TimeFormat), 0, 0}, // past date: no wait
	}
	for _, tc := range cases {
		got := parseRetryAfter(tc.in)
		if got < tc.min || got > tc.max {
			t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]", tc.in, got, tc.min, tc.max)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("path = %q", r.URL.Path)
		}
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	c := fastClient(srv.URL)
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestHealthzFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := fastClient(srv.URL)
	err := c.Healthz(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestNonJSONErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text panic page", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := New(Config{BaseURL: srv.URL, MaxAttempts: 1, rand: rand.New(rand.NewSource(1))})
	_, err := c.Color(context.Background(), service.ColorRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(apiErr.Message, "plain text") {
		t.Fatalf("message = %q, want raw body fallback", apiErr.Message)
	}
}

// respondDeltaMiss scripts a 404 carrying the server's recoverable
// hint (or not).
func respondDeltaMiss(recoverable bool) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(service.ErrorResponse{
			Error:       "fingerprint unavailable",
			Recoverable: recoverable,
		})
	}
}

// TestDeltaRecoverable404Retries pins the recovery-race contract: a
// 404 whose body carries recoverable=true means the daemon's WAL still
// holds the fingerprint, so the client retries in place instead of
// surfacing a miss the caller would answer by unlearning durable state.
func TestDeltaRecoverable404Retries(t *testing.T) {
	d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){
		respondDeltaMiss(true),
		respondDeltaMiss(true),
		func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(service.DeltaResponse{Colors: []int32{0, 1}, NumColors: 2})
		},
	}}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	c := fastClient(srv.URL)
	resp, err := c.Delta(context.Background(), "00000000000000aa", service.DeltaRequest{})
	if err != nil {
		t.Fatalf("recoverable 404s should retry through: %v", err)
	}
	if resp.NumColors != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if got := d.calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3 (two recoverable retries)", got)
	}
}

// TestDeltaPlain404NoRetry: without the hint, a 404 is a definitive
// miss and must surface immediately (the caller's cue to re-color).
func TestDeltaPlain404NoRetry(t *testing.T) {
	d := &fakeDaemon{t: t, script: []func(http.ResponseWriter){respondDeltaMiss(false)}}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	c := fastClient(srv.URL)
	_, err := c.Delta(context.Background(), "00000000000000aa", service.DeltaRequest{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want plain 404 APIError", err)
	}
	if ae.Recoverable || ae.Temporary() {
		t.Fatalf("plain 404 classified recoverable/temporary: %+v", ae)
	}
	if got := d.calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (no retry)", got)
	}
}
