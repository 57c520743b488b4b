package router

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
	"bgpc/internal/testutil"
	"bgpc/internal/trace"
)

// fakeBackend is a scripted fleet member: its handler is swappable at
// runtime, its /healthz verdict is controllable (or scripted outright),
// and it counts /color and delta hits.
type fakeBackend struct {
	srv     *httptest.Server
	addr    string
	hits    atomic.Int64
	healthy atomic.Bool

	mu    sync.Mutex
	fn    http.HandlerFunc
	probe http.HandlerFunc // answers /healthz when set
}

func (f *fakeBackend) set(fn http.HandlerFunc) {
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

func (f *fakeBackend) setProbe(fn http.HandlerFunc) {
	f.mu.Lock()
	f.probe = fn
	f.mu.Unlock()
}

func okColorHandler(w http.ResponseWriter, r *http.Request) {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		w.Header().Set("X-Request-ID", id)
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"colors":[0],"num_colors":1,"max_color":0}`)
}

// newFleet boots n scripted backends plus a router over them with
// probing effectively disabled (tests drive health transitions
// explicitly; the chaos test exercises the live prober).
func newFleet(t *testing.T, n int) ([]*fakeBackend, *Router) {
	t.Helper()
	return newFleetWith(t, n, Config{Health: HealthConfig{ProbeInterval: time.Hour}})
}

// newFleetWith is newFleet with the given router configuration; the
// backends and a quiet log are filled in.
func newFleetWith(t *testing.T, n int, cfg Config) ([]*fakeBackend, *Router) {
	t.Helper()
	fleet := make([]*fakeBackend, n)
	var addrs []string
	for i := range fleet {
		f := &fakeBackend{}
		f.healthy.Store(true)
		f.set(okColorHandler)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			probe := f.probe
			f.mu.Unlock()
			if probe != nil {
				probe(w, r)
				return
			}
			if !f.healthy.Load() {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			io.WriteString(w, "ok")
		})
		job := func(w http.ResponseWriter, r *http.Request) {
			f.hits.Add(1)
			f.mu.Lock()
			fn := f.fn
			f.mu.Unlock()
			fn(w, r)
		}
		mux.HandleFunc("POST /color", job)
		mux.HandleFunc("POST /color/{fingerprint}/delta", job)
		f.srv = httptest.NewServer(mux)
		f.addr = strings.TrimPrefix(f.srv.URL, "http://")
		fleet[i] = f
		addrs = append(addrs, f.addr)
		t.Cleanup(f.srv.Close)
	}
	cfg.Backends = addrs
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return fleet, rt
}

func byAddr(fleet []*fakeBackend) map[string]*fakeBackend {
	m := make(map[string]*fakeBackend, len(fleet))
	for _, f := range fleet {
		m[f.addr] = f
	}
	return m
}

const jobBody = `{"preset":"grid","scale":0.02}`

func postColor(t *testing.T, rt *Router, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/color", strings.NewReader(body))
	req.URL = &url.URL{Path: "/color"}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	return w
}

// TestRouterRoutesToOwner: a job lands on the ring owner of its cache
// key and the response carries X-BGPC-Backend.
func TestRouterRoutesToOwner(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 3)
	owner := rt.Ring().Owner("preset:grid:0.02")
	w := postColor(t, rt, jobBody, nil)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-BGPC-Backend"); got != owner {
		t.Fatalf("served by %q, ring owner is %q", got, owner)
	}
	if byAddr(fleet)[owner].hits.Load() != 1 {
		t.Fatalf("owner did not receive the job")
	}
	for _, f := range fleet {
		if f.addr != owner && f.hits.Load() != 0 {
			t.Fatalf("non-owner %s was hit", f.addr)
		}
	}
}

// TestRouterFailover: the owner answering 500 sends the job to the
// ring successor with X-BGPC-Rerouted; the owner's passive health
// degrades toward suspect.
func TestRouterFailover(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 3)
	owner := rt.Ring().Owner("preset:grid:0.02")
	successor := rt.Ring().Order("preset:grid:0.02")[1]
	byAddr(fleet)[owner].set(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})

	before := obs.RtrFailovers.Load()
	w := postColor(t, rt, jobBody, nil)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-BGPC-Backend"); got != successor {
		t.Fatalf("served by %q, want successor %q", got, successor)
	}
	if w.Header().Get("X-BGPC-Rerouted") == "" {
		t.Fatal("missing X-BGPC-Rerouted marker")
	}
	if obs.RtrFailovers.Load() <= before {
		t.Fatal("rtr_failovers did not increase")
	}

	// Two more failing jobs push the owner to suspect; turning suspect
	// nudges an immediate probe, and with /healthz also failing the
	// probe confirms the suspicion and ejects. (Asserting the
	// intermediate suspect state would race the nudged probe.)
	byAddr(fleet)[owner].healthy.Store(false)
	for i := 0; i < 2; i++ {
		postColor(t, rt, jobBody, nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := rt.BackendState(owner); s == StateEjected {
			break
		}
		if time.Now().After(deadline) {
			s, _ := rt.BackendState(owner)
			t.Fatalf("owner state %v after passive failures + failing probe, want ejected", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterSpillover: a 429 owner spills the job to the successor
// (marked X-BGPC-Spilled); when the whole fleet is out of budget the
// OWNER's rejection — its Retry-After in particular — is replayed.
func TestRouterSpillover(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 3)
	owner := rt.Ring().Owner("preset:grid:0.02")
	successor := rt.Ring().Order("preset:grid:0.02")[1]
	reject := func(retryAfter string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, "queue full", http.StatusTooManyRequests)
		}
	}
	byAddr(fleet)[owner].set(reject("7"))

	before := obs.RtrSpillovers.Load()
	w := postColor(t, rt, jobBody, nil)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-BGPC-Backend"); got != successor {
		t.Fatalf("served by %q, want successor %q", got, successor)
	}
	if w.Header().Get("X-BGPC-Spilled") == "" {
		t.Fatal("missing X-BGPC-Spilled marker")
	}
	if obs.RtrSpillovers.Load() <= before {
		t.Fatal("rtr_spillovers did not increase")
	}
	// Spillover must not count against the owner's health: 429 means
	// alive and answering.
	if s, _ := rt.BackendState(owner); s != StateHealthy {
		t.Fatalf("owner state %v after a 429, want healthy", s)
	}

	// Whole fleet out of budget: the owner's original advice comes back.
	for _, f := range fleet {
		f.set(reject("9"))
	}
	byAddr(fleet)[owner].set(reject("7"))
	w = postColor(t, rt, jobBody, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want the owner's %q", ra, "7")
	}
	if got := w.Header().Get("X-BGPC-Backend"); got != owner {
		t.Fatalf("replayed rejection attributed to %q, want owner %q", got, owner)
	}
}

// TestRouterHeaderForwarding: the correlation id crosses the hop
// verbatim; the traceparent does NOT — the router joins the caller's
// trace (same trace id) but mints a child span id per hop so the
// backend parents to the router's attempt, not to the caller directly.
// Every request is traced: a caller's flags-00 header is adopted, the
// hop goes out with flags 01, and the router records the hop span.
func TestRouterHeaderForwarding(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 2)
	var gotID, gotTP string
	for _, f := range fleet {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			gotID = r.Header.Get("X-Request-ID")
			gotTP = r.Header.Get("traceparent")
			okColorHandler(w, r)
		})
	}
	// A bare X-Request-ID (no traceparent) crosses the hop verbatim.
	w := postColor(t, rt, jobBody, map[string]string{"X-Request-ID": "caller-chosen-id"})
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if gotID != "caller-chosen-id" {
		t.Fatalf("backend saw id=%q, want verbatim forwarding", gotID)
	}
	if rid := w.Header().Get("X-Request-ID"); rid != "caller-chosen-id" {
		t.Fatalf("response X-Request-ID %q, want the backend's echo", rid)
	}

	// With a traceparent, the trace id IS the correlation id — the same
	// resolution rule the daemon applies — so both processes agree on it
	// even though the caller also sent a different X-Request-ID.
	const callerTID = "0af7651916cd43dd8448eb211c80319c"
	const callerSpan = "b7ad6b7169203331"
	w = postColor(t, rt, jobBody, map[string]string{
		"X-Request-ID": "caller-chosen-id",
		"traceparent":  "00-" + callerTID + "-" + callerSpan + "-00",
	})
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if gotID != callerTID {
		t.Fatalf("backend saw id=%q, want the trace id %q", gotID, callerTID)
	}
	tid, pid, ok := trace.ParseTraceparent(gotTP)
	if !ok {
		t.Fatalf("backend saw malformed traceparent %q", gotTP)
	}
	if tid != callerTID || !strings.HasSuffix(gotTP, "-01") {
		t.Fatalf("router must stay in the caller's trace with flags 01: got %q", gotTP)
	}
	if pid == callerSpan {
		t.Fatal("router must mint a child span id per hop, not forward the caller's")
	}
	code, asm := getAssembled(t, rt, "/debug/trace/"+callerTID)
	if code != 200 {
		t.Fatalf("router fragment of a flags-00 request not exported: %d", code)
	}
	if asm.Fragments[0].ParentID != callerSpan {
		t.Fatalf("router fragment parent %q, want the caller's span %q", asm.Fragments[0].ParentID, callerSpan)
	}
	if proxies := asm.FindSpans(trace.KindProxy); len(proxies) != 1 || proxies[0].ID != pid {
		t.Fatalf("proxy hop spans %+v, want one with the forwarded id %s", proxies, pid)
	}
	if got := w.Header().Get("X-BGPC-Trace"); got != callerTID {
		t.Fatalf("response X-BGPC-Trace %q, want the caller's trace id", got)
	}

	// No client id at all: the router mints one for the hop.
	w = postColor(t, rt, jobBody, nil)
	if gotID == "" {
		t.Fatal("router forwarded no X-Request-ID for an anonymous request")
	}
}

// TestRouterTraceRingBelowOneMeans256: a ring size below one is the
// default ring, not a tracing-off mode — responses still carry a trace
// id, the ring keeps the last 256 requests and each exports its trace.
func TestRouterTraceRingBelowOneMeans256(t *testing.T) {
	_, rt := newFleetWith(t, 2, Config{TraceRing: -1, Health: HealthConfig{ProbeInterval: time.Hour}})
	var first, last string
	for i := 0; i < 257; i++ {
		w := postColor(t, rt, jobBody, nil)
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
	if n := len(rt.traces.List()); n != 256 {
		t.Fatalf("router ring holds %d requests, want 256", n)
	}
	if code, _ := getAssembled(t, rt, "/debug/trace/"+first); code != 404 {
		t.Fatalf("the oldest request must be evicted, got %d", code)
	}
	if code, asm := getAssembled(t, rt, "/debug/trace/"+last); code != 200 || len(asm.FindSpans(trace.KindProxy)) != 1 {
		t.Fatalf("newest trace not exported with its hop: %d %+v", code, asm)
	}
}

// TestRouterDedup: two identical concurrent jobs reach the backend
// once; the follower's response is marked X-BGPC-Deduped and
// rtr_dedup_hits counts it. A distinct body must NOT be deduped.
func TestRouterDedup(t *testing.T) {
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

	before := obs.RtrDedupHits.Load()
	const n = 4
	results := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = postColor(t, rt, jobBody, nil)
		}()
	}
	<-started // leader reached the backend
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	var total int64
	for _, f := range fleet {
		total += f.hits.Load()
	}
	if total != 1 {
		t.Fatalf("%d backend executions for %d identical jobs, want 1", total, n)
	}
	deduped := 0
	for _, w := range results {
		if w.Code != 200 {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if w.Header().Get("X-BGPC-Deduped") != "" {
			deduped++
		}
	}
	if deduped != n-1 {
		t.Fatalf("%d responses marked deduped, want %d", deduped, n-1)
	}
	if got := obs.RtrDedupHits.Load() - before; got != n-1 {
		t.Fatalf("rtr_dedup_hits delta %d, want %d", got, n-1)
	}

	// Different body → separate execution.
	w := postColor(t, rt, `{"preset":"grid","scale":0.03}`, nil)
	if w.Code != 200 || w.Header().Get("X-BGPC-Deduped") != "" {
		t.Fatalf("distinct job: status %d deduped=%q", w.Code, w.Header().Get("X-BGPC-Deduped"))
	}
}

// TestRouterAllBackendsDown: with every backend ejected the router
// answers 503 with Retry-After and its /healthz degrades.
func TestRouterAllBackendsDown(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 2)
	for _, f := range fleet {
		b := rt.backends[f.addr]
		b.mu.Lock()
		b.state = StateEjected
		b.mu.Unlock()
	}
	w := postColor(t, rt, jobBody, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var er struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("unparseable error body %q (%v)", w.Body, err)
	}

	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hw := httptest.NewRecorder()
	rt.ServeHTTP(hw, hreq)
	if hw.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz %d with zero eligible backends, want 503", hw.Code)
	}
}

// TestRouterVariantParsesModeLikeBackend: the router labels a request
// with the variant the backend records, so mode "D2" (the backend
// lowercases modes) lands under the d2 variants on both hops.
func TestRouterVariantParsesModeLikeBackend(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, _ := newFleet(t, 1)
	var log strings.Builder
	rt, err := New(Config{
		Backends: []string{fleet[0].addr},
		Health:   HealthConfig{ProbeInterval: time.Hour},
		Log:      slog.New(slog.NewTextHandler(&log, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if w := postColor(t, rt, `{"preset":"grid","scale":0.02,"mode":"D2"}`, nil); w.Code != 200 {
		t.Fatalf("color status %d: %s", w.Code, w.Body)
	}
	if w := postDelta(rt, "0123456789abcdef", `{"insert":[[0,1]],"mode":"D2"}`); w.Code != 200 {
		t.Fatalf("delta status %d: %s", w.Code, w.Body)
	}
	for _, want := range []string{"variant=d2/N1-N2", "variant=delta/d2"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("route log lacks %s:\n%s", want, log.String())
		}
	}
}

// TestRouterPickFailpoint: an armed router.pick failpoint fails the
// request as if no backend were eligible.
func TestRouterPickFailpoint(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	_, rt := newFleet(t, 2)
	if err := failpoint.ArmFromSpec(FPPick + "=err@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Reset()
	if w := postColor(t, rt, jobBody, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with router.pick armed, want 503", w.Code)
	}
	if w := postColor(t, rt, jobBody, nil); w.Code != 200 {
		t.Fatalf("status %d after failpoint expired, want 200", w.Code)
	}
}

// TestRouterProxyFailpoint: router.proxy faults count as transport
// failures — the job still succeeds via the successor.
func TestRouterProxyFailpoint(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	_, rt := newFleet(t, 2)
	if err := failpoint.ArmFromSpec(FPProxy + "=err@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Reset()
	w := postColor(t, rt, jobBody, nil)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("X-BGPC-Rerouted") == "" {
		t.Fatal("missing X-BGPC-Rerouted after injected proxy fault")
	}
}

// TestHealthStateMachine drives one backend through the full cycle
// without HTTP: passive failures → suspect, failed probe → ejected,
// probe successes → probing → healthy.
func TestHealthStateMachine(t *testing.T) {
	cfg := HealthConfig{}.withDefaults()
	b := newBackend("127.0.0.1:1")
	if b.State() != StateHealthy {
		t.Fatalf("initial state %v", b.State())
	}
	for i := 0; i < cfg.FailAfter-1; i++ {
		b.reportFailure(cfg)
		if b.State() != StateHealthy {
			t.Fatalf("suspect after only %d failures", i+1)
		}
	}
	b.reportFailure(cfg)
	if b.State() != StateSuspect {
		t.Fatalf("state %v after %d failures, want suspect", b.State(), cfg.FailAfter)
	}
	select {
	case <-b.nudge:
	default:
		t.Fatal("turning suspect did not nudge the prober")
	}

	// A passive success clears suspicion...
	b.reportSuccess()
	if b.State() != StateHealthy {
		t.Fatalf("state %v after success, want healthy", b.State())
	}
	// ...but suspect + failed probe ejects.
	for i := 0; i < cfg.FailAfter; i++ {
		b.reportFailure(cfg)
	}
	ejBefore := obs.RtrEjections.Load()
	if !b.reportProbe(false, cfg) {
		t.Fatal("the ejecting probe did not report the ejection")
	}
	if b.State() != StateEjected {
		t.Fatalf("state %v after failed probe while suspect, want ejected", b.State())
	}
	if obs.RtrEjections.Load() != ejBefore+1 {
		t.Fatal("rtr_ejections not counted")
	}
	if b.eligible() {
		t.Fatal("ejected backend reports eligible")
	}

	// Recovery: one good probe → probing, RecoverProbes good → healthy.
	recBefore := obs.RtrRecoveries.Load()
	b.reportProbe(true, cfg)
	if cfg.RecoverProbes > 1 && b.State() != StateProbing {
		t.Fatalf("state %v after first good probe, want probing", b.State())
	}
	// A relapse mid-recovery re-ejects, but is not a new ejection.
	if b.reportProbe(false, cfg) {
		t.Fatal("a relapse during recovery reported a new ejection")
	}
	if b.State() != StateEjected {
		t.Fatalf("state %v after relapse, want ejected", b.State())
	}
	for i := 0; i < cfg.RecoverProbes; i++ {
		b.reportProbe(true, cfg)
	}
	if b.State() != StateHealthy {
		t.Fatalf("state %v after %d good probes, want healthy", b.State(), cfg.RecoverProbes)
	}
	if obs.RtrRecoveries.Load() != recBefore+1 {
		t.Fatal("rtr_recoveries not counted")
	}
}

// newDiag returns a flight recorder over a fresh directory with no
// cooldown, so every trigger writes a bundle.
func newDiag(t *testing.T) *trace.Flight {
	t.Helper()
	diag, err := trace.NewFlight(trace.FlightConfig{Dir: t.TempDir(), Cooldown: -1, Process: "bgpcrouter"})
	if err != nil {
		t.Fatal(err)
	}
	return diag
}

func bundles(t *testing.T, diag *trace.Flight) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(diag.Dir(), "bundle-*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestEjectionWritesOneBundle: a router built with Diag writes exactly
// one backend_ejected bundle when its prober ejects a backend, and
// none when it is closed. The bundle carries the router's retained
// request timelines, so the traffic before the ejection is on record.
func TestEjectionWritesOneBundle(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	diag := newDiag(t)
	fleet, rt := newFleetWith(t, 2, Config{
		Health: HealthConfig{ProbeInterval: 20 * time.Millisecond, ProbeTimeout: time.Second},
		Diag:   diag,
	})
	const routed = 3
	for i := 0; i < routed; i++ {
		if w := postColor(t, rt, jobBody, nil); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	ejBefore := obs.RtrEjections.Load()
	fleet[0].healthy.Store(false)
	waitForState(t, rt, fleet[0].addr, StateEjected, 5*time.Second)
	rt.Close()
	if got := obs.RtrEjections.Load() - ejBefore; got != 1 {
		t.Fatalf("rtr_ejections rose by %d, want 1", got)
	}
	got := bundles(t, diag)
	if len(got) != 1 || !strings.HasSuffix(got[0], "-backend_ejected") {
		t.Fatalf("bundles %v, want exactly one backend_ejected bundle", got)
	}
	raw, err := os.ReadFile(filepath.Join(got[0], "requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var timelines []obs.Timeline
	if err := json.Unmarshal(raw, &timelines); err != nil {
		t.Fatalf("requests.json: %v: %s", err, raw)
	}
	if len(timelines) != routed {
		t.Fatalf("requests.json holds %d timelines, want the %d routed requests: %s", len(timelines), routed, raw)
	}
}

// TestCloseMidProbeKeepsHealth: a probe cut short by Close says nothing
// of the backend. A suspect backend whose probe is in flight at Close
// stays suspect; nothing is ejected and no bundle is written.
func TestCloseMidProbeKeepsHealth(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	diag := newDiag(t)
	fleet, rt := newFleetWith(t, 1, Config{
		Health: HealthConfig{FailAfter: 1, ProbeInterval: time.Hour},
		Diag:   diag,
	})
	f := fleet[0]
	probing := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	var once sync.Once
	f.setProbe(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(probing) })
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	b := rt.backends[f.addr]
	ejBefore := obs.RtrEjections.Load()
	b.reportFailure(rt.cfg.Health) // healthy → suspect, nudging an immediate probe
	select {
	case <-probing:
	case <-time.After(5 * time.Second):
		t.Fatal("turning suspect did not start a probe")
	}
	rt.Close()
	if st := b.State(); st != StateSuspect {
		t.Fatalf("backend %v after Close cut its probe short, want suspect", st)
	}
	if got := obs.RtrEjections.Load() - ejBefore; got != 0 {
		t.Fatalf("rtr_ejections rose by %d at Close, want 0", got)
	}
	if got := bundles(t, diag); len(got) != 0 {
		t.Fatalf("Close wrote bundles %v, want none", got)
	}
}

// TestSingleflightRefcount: the shared execution survives one waiter's
// cancellation and is canceled only when the last waiter leaves.
func TestSingleflightRefcount(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	g := newGroup()
	block := make(chan struct{})
	entered := make(chan struct{})
	var execCanceled atomic.Bool
	fn := func(ctx context.Context) (*flightResult, error) {
		close(entered)
		select {
		case <-block:
			return &flightResult{status: 200}, nil
		case <-ctx.Done():
			execCanceled.Store(true)
			return nil, ctx.Err()
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	lead := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx1, "k", fn)
		lead <- err
	}()
	<-entered

	// A follower joins, then the LEADER leaves: execution continues for
	// the follower.
	follow := make(chan *flightResult, 1)
	go func() {
		res, shared, err := g.Do(context.Background(), "k", fn)
		if err != nil || !shared {
			t.Errorf("follower: shared=%v err=%v", shared, err)
		}
		follow <- res
	}()
	// Wait until the follower has actually joined the flight.
	for {
		g.mu.Lock()
		f := g.m["k"]
		n := 0
		if f != nil {
			n = f.waiters
		}
		g.mu.Unlock()
		if n >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if err := <-lead; err == nil {
		t.Fatal("canceled leader got no error")
	}
	close(block)
	if res := <-follow; res == nil || res.status != 200 {
		t.Fatalf("follower result %+v", res)
	}
	if execCanceled.Load() {
		t.Fatal("execution was canceled while a waiter remained")
	}

	// Fresh flight where EVERY waiter leaves: the execution is canceled.
	block = make(chan struct{})
	entered = make(chan struct{})
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		g.Do(ctx2, "k2", fn)
		close(done)
	}()
	<-entered
	cancel2()
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for !execCanceled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("execution not canceled after last waiter left")
		}
		time.Sleep(time.Millisecond)
	}
}
