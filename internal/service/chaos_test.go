package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/limits"
	"bgpc/internal/mtx"
	"bgpc/internal/obs"
	"bgpc/internal/testutil"
	"bgpc/internal/verify"
)

// The chaos battery: concurrent clients hammer the daemon while named
// fault schedules are armed at every layer the request path crosses —
// worker dispatch (pool.beforeRun), the parallel runtime
// (par.dispatch), the speculative loop (core.iterate, BGPC and D2GC),
// the parser (mtx.readEntry), the generator (gen.build), and the
// graph cache. The invariants checked are the daemon's whole failure
// model:
//
//   - every response is a well-formed 200/4xx/5xx with a JSON body —
//     no hangs, no connection kills, no empty bodies;
//   - every 200 carries a verifiably valid coloring;
//   - after the storm the gauges return to baseline and a probe
//     request succeeds — no leaked accounting, no wedged workers.
//
// Run it under -race (CI's chaos job does) — the injected delays and
// panics reshuffle goroutine interleavings on purpose.

// chaosWorkload is the request mix clients draw from, with the means
// to verify any 200 that comes back.
type chaosWorkload struct {
	name   string
	req    ColorRequest
	verify func(t *testing.T, colors []int32) error
}

func chaosWorkloads(t *testing.T) []chaosWorkload {
	t.Helper()
	tiny, err := mtx.Read(strings.NewReader(tinyMtx))
	if err != nil {
		t.Fatal(err)
	}
	chanG, err := gen.Preset("channel", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	afB, err := gen.Preset("afshell", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	afU, err := graph.FromBipartite(afB)
	if err != nil {
		t.Fatal(err)
	}
	return []chaosWorkload{
		{
			name: "inline-matrix",
			req:  ColorRequest{Matrix: tinyMtx, Algorithm: "V-V", Threads: 2, TimeoutMS: 10_000},
			verify: func(t *testing.T, colors []int32) error {
				return verify.BGPC(tiny, colors)
			},
		},
		{
			name: "preset-bgpc",
			req:  ColorRequest{Preset: "channel", Scale: 0.05, Algorithm: "N1-N2", Threads: 2, TimeoutMS: 10_000},
			verify: func(t *testing.T, colors []int32) error {
				return verify.BGPC(chanG, colors)
			},
		},
		{
			name: "preset-d2",
			req:  ColorRequest{Preset: "afshell", Scale: 0.05, Mode: "d2", Threads: 2, TimeoutMS: 10_000},
			verify: func(t *testing.T, colors []int32) error {
				return verify.D2GC(afU, colors)
			},
		},
		{
			name: "malformed-mode",
			req:  ColorRequest{Matrix: tinyMtx, Mode: "d3"},
			// Always a 400; never verified.
			verify: nil,
		},
	}
}

// wellFormed asserts one response obeys the status contract and
// returns the parsed body when it is a 200.
func wellFormed(t *testing.T, schedule string, code int, body []byte) *ColorResponse {
	t.Helper()
	switch code {
	case http.StatusOK:
		var resp ColorResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Errorf("[%s] 200 with unparseable body %q: %v", schedule, body, err)
			return nil
		}
		return &resp
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusServiceUnavailable:
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("[%s] %d with no structured error: %q", schedule, code, body)
		}
		return nil
	default:
		t.Errorf("[%s] unexpected status %d: %q", schedule, code, body)
		return nil
	}
}

func TestChaosBattery(t *testing.T) {
	schedules := []struct {
		name string
		spec string
	}{
		{"worker-panics", FPBeforeRun + "=panic@6#2"},
		{"parse-faults", "mtx.readEntry=err@6#1"},
		{"straggler-chunks", "par.dispatch=delay:1ms@40#10"},
		{"runner-errs", "core.iterate=err@6#1"},
		{"cache-rot", FPCacheGet + "=err@8;" + FPCachePut + "=err@8"},
		{"build-crashes", gen.FPBuild + "=panic@3#1"},
		{"handler-panics", FPHandleColor + "=panic@3#2"},
		{"estimate-faults", limits.FPEstimate + "=err@8#2"},
		{"kitchen-sink", FPBeforeRun + "=panic@3#3," +
			"par.dispatch=delay:500us@24#6," +
			"mtx.readEntry=err@2#2," +
			FPCacheGet + "=err@4"},
	}

	const clients = 8
	const perClient = 6

	for _, sched := range schedules {
		sched := sched
		t.Run(sched.name, func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t)
			s := newTestServer(t, Config{
				Workers:        4,
				QueueDepth:     32,
				QuarantineFor:  time.Minute,
				WatchdogWindow: testutil.Scale(5 * time.Second),
			})
			// Build workloads (and their verification graphs) before
			// arming: setup must not consume injected faults.
			loads := chaosWorkloads(t)
			arm(t, sched.spec)

			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						wl := loads[(c+i)%len(loads)]
						w := post(t, s, wl.req)
						resp := wellFormed(t, sched.name, w.Code, w.Body.Bytes())
						if resp != nil {
							if wl.verify == nil {
								t.Errorf("[%s] %s returned 200, expected 4xx", sched.name, wl.name)
							} else if err := wl.verify(t, resp.Colors); err != nil {
								t.Errorf("[%s] %s: 200 with invalid coloring: %v", sched.name, wl.name, err)
							}
						}
					}
				}(c)
			}
			wg.Wait()

			// Storm over: disarm, and the daemon must be fully
			// serviceable with gauges at baseline.
			failpoint.Reset()
			testutil.WaitFor(t, testutil.Scale(5*time.Second), func() bool {
				return s.QueueDepth() == 0 && s.ActiveJobs() == 0
			}, "gauges did not return to baseline: depth=%d active=%d", s.QueueDepth(), s.ActiveJobs())

			// Probe with a fresh fingerprint (immune to any quarantine
			// the storm accumulated).
			probe := ColorRequest{Preset: "movielens", Scale: 0.04 + float64(len(sched.name))/1e4}
			w := post(t, s, probe)
			if w.Code != http.StatusOK {
				t.Fatalf("[%s] probe after storm: status %d: %s", sched.name, w.Code, w.Body)
			}
		})
	}
}

// TestChaosDrainMidBurst drains the server while clients are mid-storm
// and worker panics + delays are armed: drain must terminate inside
// its grace window, post-drain requests must be clean 503s, and no
// goroutine may outlive the test.
func TestChaosDrainMidBurst(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	loads := chaosWorkloads(t)
	arm(t, FPBeforeRun+"=delay:5ms;"+FPHandleColor+"=err@1#5")
	s := New(Config{Workers: 2, QueueDepth: 8, QuarantineFor: time.Minute})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				wl := loads[(c+i)%len(loads)]
				w := post(t, s, wl.req)
				wellFormed(t, "drain-mid-burst", w.Code, w.Body.Bytes())
			}
		}(c)
	}

	time.Sleep(testutil.Scale(20 * time.Millisecond)) // let the burst establish
	ctx, cancel := context.WithTimeout(context.Background(), testutil.Scale(10*time.Second))
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain mid-burst: %v", err)
	}
	close(stop)
	wg.Wait()

	// Fully drained: everything from here is a structured 503.
	w := post(t, s, loads[0].req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d: %s", w.Code, w.Body)
	}
	if d, a := s.QueueDepth(), s.ActiveJobs(); d != 0 || a != 0 {
		t.Fatalf("gauges after drain: depth=%d active=%d", d, a)
	}
}

// TestChaosEnvSchedule exercises the operator-facing arming path the
// CI chaos job uses: a BGPC_FAILPOINTS-style spec armed via
// ArmFromEnv drives the same containment as programmatic arming.
func TestChaosEnvSchedule(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	t.Setenv(failpoint.EnvVar, FPBeforeRun+"=panic@1")
	if err := failpoint.ArmFromEnv(); err != nil {
		t.Fatal(err)
	}
	if got := failpoint.Active(); len(got) != 1 || got[0] != FPBeforeRun {
		t.Fatalf("Active() = %v after ArmFromEnv", got)
	}
	s := newTestServer(t, Config{Workers: 1})
	panics0 := obs.SvcPanics.Load()
	if w := post(t, s, ColorRequest{Matrix: tinyMtx}); w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if w := post(t, s, ColorRequest{Matrix: tinyMtx}); w.Code != http.StatusOK {
		t.Fatalf("after auto-disarm: status %d: %s", w.Code, w.Body)
	}
	if obs.SvcPanics.Load() == panics0 {
		t.Fatal("env-armed failpoint never fired")
	}
}

// TestChaosGaugeBaselineSnapshot pins that a full storm leaves the
// /metrics gauges consistent.
func TestChaosGaugeBaselineSnapshot(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})
	arm(t, FPBeforeRun+"=panic@2#1")
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				post(t, s, ColorRequest{Matrix: tinyMtx, TimeoutMS: 10_000})
			}
		}()
	}
	wg.Wait()
	failpoint.Reset()

	r := post(t, s, ColorRequest{}) // 400, but forces a full handler pass
	if r.Code != http.StatusBadRequest {
		t.Fatalf("probe status %d", r.Code)
	}
	g := scrapeGauges(t, s)
	for _, name := range []string{"bgpc_svc_queue_depth", "bgpc_svc_active_jobs"} {
		if got, ok := g[name]; !ok || got != 0 {
			t.Fatalf("%s after the storm = %v (present %v), want 0", name, got, ok)
		}
	}
}

// TestChaosBudgetSqueeze runs the storm against a deliberately tight
// memory budget with estimation faults armed on top: real 429s from
// budget contention interleave with injected ones, stragglers hold
// reservations longer than usual, and the invariant under all of it is
// that no reservation leaks — bytes in flight return to exactly zero
// and a probe job is admitted once the storm passes.
func TestChaosBudgetSqueeze(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	req := ColorRequest{Matrix: tinyMtx, Algorithm: "V-V", TimeoutMS: 10_000}
	sizer := newTestServer(t, Config{Workers: 1})
	spec, _, err := sizer.resolve(&req)
	if err != nil {
		t.Fatal(err)
	}
	// Room for roughly two tiny jobs: enough to admit, tight enough
	// that eight clients contend on the budget for real.
	s := newTestServer(t, Config{
		Workers:    4,
		QueueDepth: 32,
		MemBudget:  2*spec.estBytes + spec.estBytes/2,
	})
	loads := chaosWorkloads(t)
	arm(t, limits.FPEstimate+"=err@6#3,"+FPBeforeRun+"=delay:2ms@20#4")

	var wg sync.WaitGroup
	var got200, got429 atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				wl := loads[(c+i)%len(loads)]
				w := post(t, s, wl.req)
				switch w.Code {
				case http.StatusOK:
					got200.Add(1)
				case http.StatusTooManyRequests:
					got429.Add(1)
					if w.Header().Get("Retry-After") == "" {
						t.Errorf("[budget-squeeze] 429 without Retry-After")
					}
				}
				wellFormed(t, "budget-squeeze", w.Code, w.Body.Bytes())
			}
		}(c)
	}
	wg.Wait()
	failpoint.Reset()

	testutil.WaitFor(t, testutil.Scale(5*time.Second), func() bool {
		return s.QueueDepth() == 0 && s.ActiveJobs() == 0 && s.BytesInFlight() == 0
	}, "budget gauges did not return to baseline: depth=%d active=%d bytes=%d",
		s.QueueDepth(), s.ActiveJobs(), s.BytesInFlight())

	if got200.Load() == 0 {
		t.Fatal("budget squeeze admitted nothing — storm config is wrong")
	}
	if w := post(t, s, req); w.Code != http.StatusOK {
		t.Fatalf("probe after squeeze: status %d: %s", w.Code, w.Body)
	}
	if got := s.BytesInFlight(); got != 0 {
		t.Fatalf("probe left %d bytes in flight", got)
	}
	t.Logf("budget squeeze: %d ok, %d rejected-retryable", got200.Load(), got429.Load())
}
