package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bgpc/internal/bench"
	"bgpc/internal/service"
)

// TestRunSLOSmoke is the end-to-end contract of the load harness: a
// seeded mixed workload (clean + hostile + cancels, Zipf-skewed keys)
// against an in-process daemon must produce a schema-valid SLO report
// whose status classes partition the request count and whose hostile
// traffic shows up in the rejection counters and byte totals.
func TestRunSLOSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	srv := httptest.NewServer(service.New(service.Config{
		Workers:    2,
		QueueDepth: 64,
	}))
	defer srv.Close()

	spec := testSpec(t)
	spec.Requests = 120
	spec.RPS = 400 // keep the wall clock under a second of schedule
	spec.HostileRate = 0.2
	spec.CancelRate = 0.05
	spec.Clients = 8
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, sched, Options{BaseURL: srv.URL, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Requests != 120 {
		t.Fatalf("requests = %d, want 120", rep.Requests)
	}
	if rep.StatusClasses["2xx"] == 0 {
		t.Fatalf("no successes: %v", rep.StatusClasses)
	}
	// A 20% hostile mix cycles every kind, so both rejection shapes
	// must appear: header-peek 413s (oversized) and body-parse 400s.
	if rep.StatusClasses["4xx"] == 0 {
		t.Fatalf("hostile mix produced no 4xx: %v", rep.StatusClasses)
	}
	if rep.Counters["bgpc_svc_too_large_total"] == 0 {
		t.Fatalf("oversized hostile input did not hit the too-large guard: %v", rep.Counters)
	}
	if rep.RejectedBytes <= 0 {
		t.Fatalf("rejected bytes = %d, want > 0", rep.RejectedBytes)
	}
	// 3 mix entries × 6 fingerprints.
	if rep.DistinctKeys != 18 {
		t.Fatalf("distinct keys = %d, want 18", rep.DistinctKeys)
	}
	if len(rep.Variants) == 0 {
		t.Fatal("no per-variant latency quantiles in report")
	}
	for name, v := range rep.Variants {
		if v.Requests <= 0 {
			t.Fatalf("variant %s recorded %d requests", name, v.Requests)
		}
	}
	if rep.CacheHits+rep.CacheMisses == 0 {
		t.Fatal("no cache lookups recorded")
	}
	if !strings.Contains(string(rep.Spec), `"seed": 1206`) &&
		!strings.Contains(string(rep.Spec), `"seed":1206`) {
		t.Fatalf("report does not embed the spec: %s", rep.Spec)
	}
	// Every populated class carries its top-K slowest drill-down ids,
	// and against a default daemon (tracing on) the 2xx entries name
	// both the request id and the trace id the server echoed.
	if len(rep.Slowest["2xx"]) == 0 {
		t.Fatalf("no slowest entries for 2xx: %v", rep.Slowest)
	}
	for class, slow := range rep.Slowest {
		if len(slow) > bench.MaxSlowestPerClass {
			t.Fatalf("slowest[%s] has %d entries, cap is %d", class, len(slow), bench.MaxSlowestPerClass)
		}
		for i, s := range slow {
			if s.MS <= 0 {
				t.Fatalf("slowest[%s][%d] latency %g, want > 0", class, i, s.MS)
			}
			if i > 0 && s.MS > slow[i-1].MS {
				t.Fatalf("slowest[%s] not ordered slowest-first: %v", class, slow)
			}
		}
	}
	for i, s := range rep.Slowest["2xx"] {
		if s.RequestID == "" || s.TraceID == "" {
			t.Fatalf("slowest[2xx][%d] missing ids: %+v", i, s)
		}
	}
}

// TestRecordSlowest pins the top-K insertion: sorted slowest-first,
// capped, and cheap rejections of entries below the current floor.
func TestRecordSlowest(t *testing.T) {
	m := map[string][]bench.SLOSlowest{}
	for _, ms := range []float64{3, 9, 1, 7, 5, 2, 8, 4, 6, 0.5} {
		recordSlowest(m, "2xx", bench.SLOSlowest{RequestID: "r", MS: ms})
	}
	slow := m["2xx"]
	if len(slow) != bench.MaxSlowestPerClass {
		t.Fatalf("len = %d, want %d", len(slow), bench.MaxSlowestPerClass)
	}
	want := []float64{9, 8, 7, 6, 5}
	for i, s := range slow {
		if s.MS != want[i] {
			t.Fatalf("slowest = %v, want latencies %v", slow, want)
		}
	}
	if len(m["429"]) != 0 {
		t.Fatalf("untouched class grew entries: %v", m)
	}
}

// TestRunDeltaMix drives a delta-heavy workload end to end: the
// dispatcher must learn fingerprints from full colors, land deltas on
// the daemon's delta endpoint (visible as the svc_delta_applied counter
// and the "delta" latency variant), and classify every outcome into the
// standard status classes. Against a daemon whose delta endpoint
// answers 404, every delta falls back to a full color and classifies
// as "fallback", never as "2xx".
func TestRunDeltaMix(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	for _, tc := range []struct {
		name string
		miss bool
	}{{"applied", false}, {"missed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var h http.Handler = service.New(service.Config{
				Workers:    2,
				QueueDepth: 64,
			})
			if tc.miss {
				mux := http.NewServeMux()
				mux.Handle("/", h)
				mux.HandleFunc("POST /color/{fingerprint}/delta", func(w http.ResponseWriter, r *http.Request) {
					http.Error(w, `{"error":"not cached"}`, http.StatusNotFound)
				})
				h = mux
			}
			srv := httptest.NewServer(h)
			defer srv.Close()

			spec := testSpec(t)
			spec.Requests = 150
			spec.RPS = 400
			spec.HostileRate = 0
			spec.CancelRate = 0
			spec.ZipfS = 0
			spec.Clients = 4
			spec.Fingerprints = 2 // few keys → fingerprints learned early
			spec.Mix = spec.Mix[:1]
			spec.Mix[0].DeltaRate = 0.6
			spec.DeltaEdges = 3
			sched, err := BuildSchedule(spec)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := Run(ctx, sched, Options{BaseURL: srv.URL, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Validate(); err != nil {
				t.Fatalf("report invalid: %v", err)
			}
			sc := rep.StatusClasses
			if sc["2xx"] == 0 || sc["2xx"]+sc["fallback"] != rep.Requests {
				t.Fatalf("status classes: %v", sc)
			}
			applied := rep.Counters["bgpc_svc_delta_applied_total"]
			if tc.miss {
				if sc["fallback"] == 0 || applied != 0 {
					t.Fatalf("missed deltas: fallback %d, applied %d: %v", sc["fallback"], applied, sc)
				}
				return
			}
			if sc["fallback"] != 0 || applied == 0 {
				t.Fatalf("applied deltas: fallback %d, applied %d: %v", sc["fallback"], applied, sc)
			}
			if v, ok := rep.Variants["delta"]; !ok || v.Requests == 0 {
				t.Fatalf("no delta latency variant in report: %v", rep.Variants)
			}
		})
	}
}

// TestRunAbortsOnCancel checks the driver honors its context: a
// canceled run reports an error instead of a partial artifact.
func TestRunAbortsOnCancel(t *testing.T) {
	srv := httptest.NewServer(service.New(service.Config{Workers: 1}))
	defer srv.Close()

	spec := testSpec(t)
	spec.RPS = 1 // schedule stretches 100s; cancel long before that
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := Run(ctx, sched, Options{BaseURL: srv.URL}); err == nil {
		t.Fatal("canceled run returned a report")
	}
}

// TestRunCountsEveryServerFault pins the generator's single-attempt
// contract: against a target that answers every POST with 503, each
// request is sent and classified by what the server answered — all
// 5xx, none transport. A client-side shedding layer that stopped
// sending after a few failures would turn the tail into transport
// errors and misreport the server.
func TestRunCountsEveryServerFault(t *testing.T) {
	daemon := service.New(service.Config{Workers: 1})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"unavailable"}`))
			return
		}
		daemon.ServeHTTP(w, r) // /metrics scrapes
	}))
	defer srv.Close()

	spec := testSpec(t)
	spec.Requests = 40
	spec.RPS = 400
	spec.HostileRate = 0
	spec.CancelRate = 0
	spec.Clients = 2
	sched, err := BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := Run(ctx, sched, Options{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 {
		t.Fatalf("requests = %d, want 40", rep.Requests)
	}
	if got := rep.StatusClasses["5xx"]; got != 40 {
		t.Fatalf("5xx = %d, want all 40 (transport %d): %v",
			got, rep.StatusClasses["transport"], rep.StatusClasses)
	}
	if got := rep.StatusClasses["transport"]; got != 0 {
		t.Fatalf("transport = %d, want 0: %v", got, rep.StatusClasses)
	}
}
