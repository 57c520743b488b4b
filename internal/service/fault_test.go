package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/mtx"
	"bgpc/internal/obs"
	"bgpc/internal/testutil"
	"bgpc/internal/verify"
)

// arm is a test helper: resets failpoint state, arms spec, and
// registers cleanup so no schedule leaks into the next test.
func arm(t *testing.T, spec string) {
	t.Helper()
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	if err := failpoint.ArmFromSpec(spec); err != nil {
		t.Fatal(err)
	}
}

// TestJobPanicReturns500AndPoolSurvives is the headline containment
// regression: a job that panics on a pool worker yields a structured
// 500 (not a hang, not a process crash), leaves the gauges at zero,
// and the same worker serves the next request normally.
func TestJobPanicReturns500AndPoolSurvives(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	arm(t, FPBeforeRun+"=panic@1")

	panics0 := obs.SvcPanics.Load()
	req := ColorRequest{Preset: "channel", Scale: 0.05, Threads: 2}
	w := post(t, s, req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "job panicked") {
		t.Fatalf("500 body does not name the panic: %s", w.Body)
	}
	if got := obs.SvcPanics.Load() - panics0; got != 1 {
		t.Fatalf("SvcPanics delta = %d, want 1", got)
	}
	if d, a := s.QueueDepth(), s.ActiveJobs(); d != 0 || a != 0 {
		t.Fatalf("gauges after panic: depth=%d active=%d, want 0/0", d, a)
	}

	// The failpoint auto-disarmed after one hit (@1): the single
	// surviving worker must now serve a valid coloring.
	w = post(t, s, req)
	if w.Code != http.StatusOK {
		t.Fatalf("post-panic request: status %d: %s", w.Code, w.Body)
	}
	resp := decode(t, w)
	g, err := gen.Preset("channel", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g, resp.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestPoolAccountingAfterPanic is the satellite regression for the
// defer-based accounting: a panicking job must leave depth() and
// active() at zero, publish its panic value through done, and not
// poison subsequent submits or drain.
func TestPoolAccountingAfterPanic(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	p := newPool(1, 2, nil)

	bad := &job{ctx: context.Background(), done: make(chan struct{})}
	bad.run = func(context.Context) { panic("job bug") }
	if err := p.submit(bad); err != nil {
		t.Fatal(err)
	}
	<-bad.done
	if bad.panicked != "job bug" {
		t.Fatalf("job.panicked = %v, want the panic value", bad.panicked)
	}
	if len(bad.stack) == 0 {
		t.Fatal("no stack captured for the panicking job")
	}
	if d, a := p.depth(), p.active(); d != 0 || a != 0 {
		t.Fatalf("gauges after panic: depth=%d active=%d", d, a)
	}

	ran := false
	good := &job{ctx: context.Background(), done: make(chan struct{})}
	good.run = func(context.Context) { ran = true }
	if err := p.submit(good); err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	<-good.done
	if !ran || good.panicked != nil {
		t.Fatalf("post-panic job: ran=%v panicked=%v", ran, good.panicked)
	}
	if err := p.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainUnderFault: SIGTERM-path drain must terminate while one job
// panics mid-drain and another sits on an armed delay failpoint.
func TestDrainUnderFault(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	arm(t, FPBeforeRun+"=delay:100ms")
	p := newPool(2, 4, nil)

	panicky := &job{ctx: context.Background(), done: make(chan struct{})}
	panicky.run = func(context.Context) { panic("mid-drain crash") }
	slow := &job{ctx: context.Background(), done: make(chan struct{})}
	slow.run = func(context.Context) {}
	for _, j := range []*job{panicky, slow} {
		if err := p.submit(j); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), testutil.Scale(5*time.Second))
	defer cancel()
	if err := p.drain(ctx); err != nil {
		t.Fatalf("drain under fault: %v", err)
	}
	<-panicky.done
	<-slow.done
	if panicky.panicked == nil {
		t.Fatal("panicking job's panic was lost")
	}
	if d, a := p.depth(), p.active(); d != 0 || a != 0 {
		t.Fatalf("gauges after drain: depth=%d active=%d", d, a)
	}
}

// TestQuarantineAfterRepeatedPanics: two panics on the same graph
// fingerprint trip the quarantine (QuarantineAfter=2) — further
// requests for that graph get 429 + Retry-After without touching the
// pool, while other graphs are unaffected.
func TestQuarantineAfterRepeatedPanics(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, QuarantineAfter: 2, QuarantineFor: time.Minute})
	arm(t, FPBeforeRun+"=panic")

	reqA := ColorRequest{Preset: "channel", Scale: 0.05}
	for i := 0; i < 2; i++ {
		if w := post(t, s, reqA); w.Code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status %d: %s", i+1, w.Code, w.Body)
		}
	}
	quar0 := obs.SvcQuarantined.Load()
	w := post(t, s, reqA)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("quarantined graph: status %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("quarantine 429 carries no Retry-After")
	}
	if !strings.Contains(w.Body.String(), "quarantined") {
		t.Fatalf("429 body does not explain the quarantine: %s", w.Body)
	}
	if obs.SvcQuarantined.Load() == quar0 {
		t.Fatal("SvcQuarantined did not increment")
	}

	// A different fingerprint still reaches the pool (and panics —
	// quarantine is per-graph, not global).
	if w := post(t, s, ColorRequest{Preset: "movielens", Scale: 0.05}); w.Code != http.StatusInternalServerError {
		t.Fatalf("other graph: status %d: %s", w.Code, w.Body)
	}

	// Disarming the fault does not lift an existing quarantine.
	failpoint.Reset()
	if w := post(t, s, reqA); w.Code != http.StatusTooManyRequests {
		t.Fatalf("quarantine lifted too early: status %d: %s", w.Code, w.Body)
	}
}

// TestQuarantineExpiresAndClears: after the cool-down the graph is
// admitted again, and a successful run wipes its strike history.
func TestQuarantineExpiresAndClears(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	hold := testutil.Scale(80 * time.Millisecond)
	s := newTestServer(t, Config{Workers: 1, QuarantineAfter: 2, QuarantineFor: hold})
	arm(t, FPBeforeRun+"=panic@2")

	req := ColorRequest{Preset: "channel", Scale: 0.05}
	for i := 0; i < 2; i++ {
		if w := post(t, s, req); w.Code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status %d: %s", i+1, w.Code, w.Body)
		}
	}
	if w := post(t, s, req); w.Code != http.StatusTooManyRequests {
		t.Fatalf("not quarantined: status %d: %s", w.Code, w.Body)
	}
	testutil.WaitFor(t, testutil.Scale(5*time.Second), func() bool {
		return post(t, s, req).Code == http.StatusOK
	}, "quarantine never expired")
	// Cool-down over and the fault is gone (@2 exhausted): repeated
	// success, no residual blocking.
	if w := post(t, s, req); w.Code != http.StatusOK {
		t.Fatalf("post-quarantine request: status %d: %s", w.Code, w.Body)
	}
}

// TestWatchdogLivelockDegrades: a runner stalled between iterations
// (injected delay, no trace events) trips the progress watchdog, which
// cancels through the Canceler; the sequential fallback still returns
// a complete valid coloring, flagged degraded + livelock.
func TestWatchdogLivelockDegrades(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, WatchdogWindow: 60 * time.Millisecond})
	arm(t, "core.iterate=delay:500ms@1")

	fired0 := obs.SvcWatchdogFired.Load()
	w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V", TimeoutMS: 30_000})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode(t, w)
	if !resp.Degraded || !resp.Livelock {
		t.Fatalf("degraded=%v livelock=%v, want true/true", resp.Degraded, resp.Livelock)
	}
	if obs.SvcWatchdogFired.Load() == fired0 {
		t.Fatal("SvcWatchdogFired did not increment")
	}
	g, err := mtx.Read(strings.NewReader(tinyMtx))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g, resp.Colors); err != nil {
		t.Fatalf("livelock fallback produced an invalid coloring: %v", err)
	}
}

// TestWatchdogQuietOnHealthyRun: a converging run beats the watchdog
// and comes back undegraded — the monitor must not false-positive.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	failpoint.Reset()
	s := newTestServer(t, Config{Workers: 1, WatchdogWindow: testutil.Scale(2 * time.Second)})
	w := post(t, s, ColorRequest{Matrix: tinyMtx, Algorithm: "V-V", Threads: 2})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if resp := decode(t, w); resp.Degraded || resp.Livelock {
		t.Fatalf("healthy run flagged: degraded=%v livelock=%v", resp.Degraded, resp.Livelock)
	}
}

// TestWatchdogIgnoresQueueWait: a job's watchdog window starts when
// its run does, so a job queued behind another for longer than the
// window still comes back undegraded.
func TestWatchdogIgnoresQueueWait(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	window := testutil.Scale(200 * time.Millisecond)
	s := newTestServer(t, Config{Workers: 1, WatchdogWindow: window})
	// The first job holds the only worker for three windows before it
	// runs; the second waits in the queue all that time. A one-thread
	// V-V run on tinyMtx has one iteration, so the second job's run,
	// and only its, stalls a quarter window at its first iteration:
	// long enough for the watchdog to look at it.
	arm(t, fmt.Sprintf("%s=delay:%s@1;core.iterate=delay:%s#1", FPBeforeRun, 3*window, window/4))

	req := ColorRequest{Matrix: tinyMtx, Algorithm: "V-V", Threads: 1, TimeoutMS: 30_000}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- post(t, s, req) }()
	testutil.WaitFor(t, time.Second, func() bool { return s.pool.active() == 1 }, "first job never started")
	second := post(t, s, req)
	for i, w := range []*httptest.ResponseRecorder{<-first, second} {
		if w.Code != http.StatusOK {
			t.Fatalf("job %d: status %d: %s", i, w.Code, w.Body)
		}
		if resp := decode(t, w); resp.Degraded || resp.Livelock {
			t.Fatalf("job %d flagged: degraded=%v livelock=%v", i, resp.Degraded, resp.Livelock)
		}
	}
	if q := decode(t, second).QueueMS; q <= float64(window.Milliseconds()) {
		t.Fatalf("second job queued %v ms, want more than the %v window", q, window)
	}
}

// TestWatchdogFallbackD2 exercises the same livelock path for a D2GC
// job (core's runner on the closed view) and its sequential
// completion.
func TestWatchdogFallbackD2(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, WatchdogWindow: 60 * time.Millisecond})
	arm(t, "core.iterate=delay:500ms@1")

	w := post(t, s, ColorRequest{Preset: "afshell", Scale: 0.05, Mode: "d2", TimeoutMS: 30_000})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode(t, w)
	if !resp.Degraded || !resp.Livelock {
		t.Fatalf("degraded=%v livelock=%v, want true/true", resp.Degraded, resp.Livelock)
	}
	bg, err := gen.Preset("afshell", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ug, err := graph.FromBipartite(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.D2GC(ug, resp.Colors); err != nil {
		t.Fatalf("livelock fallback produced an invalid D2 coloring: %v", err)
	}
}

// TestHandlerPanicMiddleware: a panic on the request goroutine (not a
// pool worker) is contained by ServeHTTP's recover into a 500.
func TestHandlerPanicMiddleware(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	arm(t, FPHandleColor+"=panic@1")

	w := post(t, s, ColorRequest{Matrix: tinyMtx})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "handler panicked") {
		t.Fatalf("500 body: %s", w.Body)
	}
	// Disarmed: the handler works again.
	if w := post(t, s, ColorRequest{Matrix: tinyMtx}); w.Code != http.StatusOK {
		t.Fatalf("post-panic handler: status %d: %s", w.Code, w.Body)
	}
}

// TestRunnerInjectedErrIs500: an injected runner fault is a server
// fault (500), never blamed on the request.
func TestRunnerInjectedErrIs500(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	arm(t, "core.iterate=err@1")
	w := post(t, s, ColorRequest{Matrix: tinyMtx})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
}

// TestParseFaultIs400: an injected mid-stream parse fault surfaces as
// a 400 — indistinguishable from truncated client input, by design.
func TestParseFaultIs400(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	arm(t, "mtx.readEntry=err@1")
	w := post(t, s, ColorRequest{Matrix: tinyMtx})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
}

// TestCacheFaultsDegradeNotFail: injected cache faults cost a rebuild,
// never a request failure.
func TestCacheFaultsDegradeNotFail(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	arm(t, FPCacheGet+"=err;"+FPCachePut+"=err")

	req := ColorRequest{Preset: "channel", Scale: 0.05}
	for i := 0; i < 2; i++ {
		w := post(t, s, req)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d under cache faults: status %d: %s", i+1, w.Code, w.Body)
		}
		if resp := decode(t, w); resp.CacheHit {
			t.Fatalf("request %d claims a cache hit through a faulted cache", i+1)
		}
	}
	failpoint.Reset()
	// Cache heals: put works again, so the second post hits.
	post(t, s, req)
	if w := post(t, s, req); !decode(t, w).CacheHit {
		t.Fatal("cache did not recover after faults cleared")
	}
}

// TestGenBuildFaultIs400: an injected preset-build failure (standing in
// for a generator bug) is contained by TryPreset and rejected.
func TestGenBuildFaultIs400(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	arm(t, gen.FPBuild+"=panic@1")
	w := post(t, s, ColorRequest{Preset: "channel", Scale: 0.05})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "panicked") {
		t.Fatalf("400 body hides the contained panic: %s", w.Body)
	}
}
