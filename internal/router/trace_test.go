package router

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpc/internal/service"
	"bgpc/internal/testutil"
	"bgpc/internal/trace"
)

// realFleet is the cross-process e2e rig: n REAL coloring daemons
// (service.New, tracing on) behind httptest listeners, fronted by a
// router with tracing on. This is the two-process topology the
// assembled-trace contract is about.
type realFleet struct {
	addrs   []string
	servers map[string]*httptest.Server
	rt      *Router
}

func newRealFleet(t *testing.T, n int) *realFleet {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	fl := &realFleet{servers: make(map[string]*httptest.Server, n)}
	for i := 0; i < n; i++ {
		srv := service.New(service.Config{Workers: 2, Log: quiet})
		ts := httptest.NewServer(srv)
		addr := strings.TrimPrefix(ts.URL, "http://")
		fl.addrs = append(fl.addrs, addr)
		fl.servers[addr] = ts
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), testutil.Scale(5*time.Second))
			defer cancel()
			if err := srv.Drain(ctx); err != nil && !strings.Contains(err.Error(), "already in progress") {
				t.Errorf("drain: %v", err)
			}
		})
	}
	rt, err := New(Config{
		Backends: fl.addrs,
		Health:   HealthConfig{ProbeInterval: time.Hour},
		Log:      quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	fl.rt = rt
	return fl
}

func getAssembled(t *testing.T, rt *Router, path string) (int, trace.Assembled) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.URL = &url.URL{Path: path}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	var asm trace.Assembled
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), &asm); err != nil {
			t.Fatalf("decoding %q: %v", w.Body.String(), err)
		}
	}
	return w.Code, asm
}

// tinyMtxRouter is the 3×4 pattern matrix the service tests color.
const tinyMtxRouter = `%%MatrixMarket matrix coordinate pattern general
3 4 7
1 1
1 2
1 3
2 3
2 4
3 2
3 4
`

// fragmentByProcess returns the first fragment exported by process.
func fragmentByProcess(asm trace.Assembled, process string) (trace.Fragment, bool) {
	for _, f := range asm.Fragments {
		if f.Process == process {
			return f, true
		}
	}
	return trace.Fragment{}, false
}

// TestE2EAssembledTraceOfReroutedRequest is the acceptance-criteria
// test: a delta request whose ring owner is DOWN fails over to the
// successor, and the assembled trace for it — fetched from the router
// in one GET — contains the router's pick span, the failed owner
// attempt, the successful proxy hop, AND the successor daemon's own
// fragment (queue/recolor spans) parented under that exact hop. Two
// processes, one trace id, correct parentage.
func TestE2EAssembledTraceOfReroutedRequest(t *testing.T) {
	fl := newRealFleet(t, 2)
	// Seed every backend with the same base coloring directly (tiny
	// inline job — the daemons reject unknown presets), so whichever
	// backend a delta lands on after failover holds the base graph its
	// fingerprint addresses.
	job, err := json.Marshal(map[string]any{"matrix": tinyMtxRouter, "algorithm": "V-V"})
	if err != nil {
		t.Fatal(err)
	}
	var fp string
	for _, a := range fl.addrs {
		resp, err := http.Post(fl.servers[a].URL+"/color", "application/json", strings.NewReader(string(job)))
		if err != nil {
			t.Fatal(err)
		}
		var cr service.ColorResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || cr.Fingerprint == "" {
			t.Fatalf("seeding %s: status %d fp %q", a, resp.StatusCode, cr.Fingerprint)
		}
		if fp == "" {
			fp = cr.Fingerprint
		} else if fp != cr.Fingerprint {
			t.Fatalf("content-addressed fingerprints diverge: %s vs %s", fp, cr.Fingerprint)
		}
	}

	// Discover the delta key's ring owner empirically, then kill it.
	const deltaBody = `{"insert":[[0,3]]}`
	w := postDelta(fl.rt, fp, deltaBody)
	if w.Code != 200 {
		t.Fatalf("warmup delta status %d: %s", w.Code, w.Body)
	}
	owner := w.Header().Get("X-BGPC-Backend")
	var successor string
	for _, a := range fl.addrs {
		if a != owner {
			successor = a
		}
	}
	fl.servers[owner].Close() // transport error → failover

	w = postDelta(fl.rt, fp, deltaBody)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("X-BGPC-Rerouted") == "" || w.Header().Get("X-BGPC-Backend") != successor {
		t.Fatalf("expected a reroute to %s, got backend=%q rerouted=%q",
			successor, w.Header().Get("X-BGPC-Backend"), w.Header().Get("X-BGPC-Rerouted"))
	}
	tid := w.Header().Get("X-BGPC-Trace")
	if !trace.ValidTraceID(tid) {
		t.Fatalf("X-BGPC-Trace %q is not a trace id", tid)
	}

	code, asm := getAssembled(t, fl.rt, "/rtr/trace/"+tid)
	if code != 200 {
		t.Fatalf("GET /rtr/trace/%s -> %d", tid, code)
	}
	if err := asm.Validate(); err != nil {
		t.Fatalf("assembled trace invalid: %v", err)
	}
	if asm.TraceID != tid {
		t.Fatalf("assembled trace id %s != request trace %s", asm.TraceID, tid)
	}

	procs := asm.Processes()
	if len(procs) != 2 {
		t.Fatalf("want fragments from both processes, got %v", procs)
	}
	if _, ok := fragmentByProcess(asm, "bgpcrouter"); !ok {
		t.Fatal("no router fragment in the assembled trace")
	}
	be, ok := fragmentByProcess(asm, "bgpcd")
	if !ok {
		t.Fatal("no backend fragment in the assembled trace")
	}

	// The router hop: exactly one failed owner attempt, one serving hop.
	fails := asm.FindSpans(trace.KindFailover)
	if len(fails) != 1 || fails[0].Attrs["backend"] != owner {
		t.Fatalf("failover spans %+v, want one naming the dead owner %s", fails, owner)
	}
	proxies := asm.FindSpans(trace.KindProxy)
	if len(proxies) != 1 || proxies[0].Attrs["backend"] != successor {
		t.Fatalf("proxy spans %+v, want one naming the successor %s", proxies, successor)
	}
	if len(asm.FindSpans(trace.KindPick)) == 0 {
		t.Fatal("no pick span in the router fragment")
	}

	// Cross-process parentage: the successor's root span must parent
	// to the router's serving hop — the link the per-hop minted span
	// id exists to create.
	if be.ParentID != proxies[0].ID {
		t.Fatalf("backend fragment parents to %q, want the serving hop %q", be.ParentID, proxies[0].ID)
	}
	// And the successor's fragment must carry the delta path's own
	// phase spans: queue wait, then the warm-start recoloring.
	for _, kind := range []string{trace.KindQueue, trace.KindRecolor} {
		found := false
		for _, sp := range be.Spans {
			if sp.Kind == kind {
				found = true
			}
		}
		if !found {
			t.Errorf("backend fragment has no %q span", kind)
		}
	}
}

// TestE2EDedupFollowerTracePointsAtLeader: concurrent identical jobs
// collapse into one execution; each follower's own trace must contain
// a dedup-follow span whose attrs name the LEADER's trace and hop span
// — the pointer a debugger follows to the execution that actually ran.
func TestE2EDedupFollowerTracePointsAtLeader(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 2)
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	for _, f := range fleet {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			started <- struct{}{}
			<-release
			okColorHandler(w, r)
		})
	}

	const n = 3
	results := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = postColor(t, rt, jobBody, nil)
		}()
	}
	<-started
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	var leaderTID string
	followers := 0
	for _, w := range results {
		if w.Code != 200 {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if w.Header().Get("X-BGPC-Deduped") == "" {
			leaderTID = w.Header().Get("X-BGPC-Trace")
		}
	}
	if !trace.ValidTraceID(leaderTID) {
		t.Fatalf("leader trace id %q invalid", leaderTID)
	}
	_, leaderAsm := getAssembled(t, rt, "/debug/trace/"+leaderTID)
	leaderHops := leaderAsm.FindSpans(trace.KindProxy)
	if len(leaderHops) != 1 {
		t.Fatalf("leader trace proxy spans: %+v", leaderHops)
	}

	for _, w := range results {
		if w.Header().Get("X-BGPC-Deduped") == "" {
			continue
		}
		followers++
		tid := w.Header().Get("X-BGPC-Trace")
		if tid == leaderTID {
			t.Fatal("follower must have its own trace id")
		}
		code, asm := getAssembled(t, rt, "/debug/trace/"+tid)
		if code != 200 {
			t.Fatalf("follower trace %s not retained: %d", tid, code)
		}
		if err := asm.Validate(); err != nil {
			t.Fatalf("follower trace invalid: %v", err)
		}
		dedups := asm.FindSpans(trace.KindDedup)
		if len(dedups) != 1 {
			t.Fatalf("follower trace dedup spans: %+v", dedups)
		}
		if got := dedups[0].Attrs["leader_trace"]; got != leaderTID {
			t.Fatalf("dedup span leader_trace %q, want %q", got, leaderTID)
		}
		if got := dedups[0].Attrs["leader_span"]; got != leaderHops[0].ID {
			t.Fatalf("dedup span leader_span %q, want the leader's hop %q", got, leaderHops[0].ID)
		}
	}
	if followers != n-1 {
		t.Fatalf("%d followers, want %d", followers, n-1)
	}
}

// TestRouterErrorContract: router-originated errors (503 fleet-dark,
// replayed spillover rejections) must echo X-Request-ID and the trace
// id in headers AND body, exactly like daemon-originated errors.
func TestRouterErrorContract(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 2)

	// Replayed rejection: the whole fleet answers 429.
	for _, f := range fleet {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "3")
			http.Error(w, "queue full", http.StatusTooManyRequests)
		})
	}
	w := postColor(t, rt, jobBody, map[string]string{"X-Request-ID": "caller-id-1"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if got := w.Header().Get("X-Request-ID"); got != "caller-id-1" {
		t.Fatalf("replayed rejection X-Request-ID %q, want the caller's", got)
	}
	if tid := w.Header().Get("X-BGPC-Trace"); !trace.ValidTraceID(tid) {
		t.Fatalf("replayed rejection X-BGPC-Trace %q invalid", tid)
	}

	// Fleet fully dark: router-minted 503 carries both ids, body included.
	for _, f := range fleet {
		b := rt.backends[f.addr]
		b.mu.Lock()
		b.state = StateEjected
		b.mu.Unlock()
	}
	w = postColor(t, rt, jobBody, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	id := w.Header().Get("X-Request-ID")
	tid := w.Header().Get("X-BGPC-Trace")
	if id == "" || !trace.ValidTraceID(tid) {
		t.Fatalf("503 must carry ids, got id=%q trace=%q", id, tid)
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != id || er.TraceID != tid {
		t.Fatalf("503 body ids (%q,%q) must echo headers (%q,%q)", er.RequestID, er.TraceID, id, tid)
	}
}
