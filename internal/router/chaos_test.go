package router

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/obs"
	"bgpc/internal/service"
	"bgpc/internal/testutil"
)

// This file is the fleet chaos battery: REAL coloring daemons
// (service.New, full worker pools) behind a real router, with one
// backend SIGKILL-equivalently destroyed mid-load and later restarted
// on the same port. It asserts the robustness contract end to end:
// ejection within the probe window, fingerprint re-homing to the ring
// successor, an error budget that holds through the outage (failover
// means clients see almost no 5xx/transport), singleflight dedup under
// concurrent identical jobs, and recovery re-homing once the backend
// returns. Run under -race in CI; testutil.CheckGoroutineLeaks guards
// every teardown path.

// realBackend is one daemon of the test fleet, restartable on its
// original address.
type realBackend struct {
	addr string
	mu   sync.Mutex
	svc  *service.Server
	srv  *http.Server
	ln   net.Listener
}

func startBackend(t *testing.T, addr string) *realBackend {
	t.Helper()
	b := &realBackend{addr: addr}
	if err := b.start(); err != nil {
		t.Fatalf("backend start: %v", err)
	}
	t.Cleanup(func() { b.stop(t) })
	return b
}

func (b *realBackend) start() error {
	addr := b.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// The previous incarnation's socket may linger briefly after an
	// abrupt close; retry the bind.
	for d := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(d) {
			return fmt.Errorf("rebinding %s: %w", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	svc := service.New(service.Config{
		Workers:    2,
		QueueDepth: 64,
	})
	srv := &http.Server{Handler: svc}
	go srv.Serve(ln)
	b.mu.Lock()
	b.addr = ln.Addr().String()
	b.svc, b.srv, b.ln = svc, srv, ln
	b.mu.Unlock()
	return nil
}

// kill destroys the backend abruptly — listener and every open
// connection die mid-flight, the closest in-process stand-in for
// SIGKILL. The worker pool is drained so the dead incarnation leaks no
// goroutines.
func (b *realBackend) kill(t *testing.T) {
	t.Helper()
	b.mu.Lock()
	srv, svc := b.srv, b.svc
	b.srv, b.svc, b.ln = nil, nil, nil
	b.mu.Unlock()
	if srv == nil {
		return
	}
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Errorf("draining killed backend: %v", err)
	}
}

func (b *realBackend) stop(t *testing.T) { b.kill(t) }

// fleetUnderTest boots n real daemons plus a router with chaos-speed
// health settings, fronted by a real HTTP listener.
func fleetUnderTest(t *testing.T, n int) ([]*realBackend, *Router, string) {
	t.Helper()
	fleet := make([]*realBackend, n)
	addrs := make([]string, n)
	for i := range fleet {
		fleet[i] = startBackend(t, "")
		addrs[i] = fleet[i].addr
	}
	rt, err := New(Config{
		Backends: addrs,
		Health: HealthConfig{
			FailAfter:     2,
			ProbeInterval: 40 * time.Millisecond,
			// Decoupled from the interval: a 40ms probe timeout against
			// race-slowed daemons under load reads scheduling delay as
			// death and ejects live backends.
			ProbeTimeout:  2 * time.Second,
			RecoverProbes: 2,
		},
		Log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := &http.Server{Handler: rt}
	go front.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
	})
	return fleet, rt, "http://" + ln.Addr().String()
}

// postJob sends one job through the router front and returns status,
// serving backend, and whether the response carried a reroute/spill
// marker. Transport-level failures return status 0.
func postJob(hc *http.Client, frontURL, body string) (status int, backend string, rerouted bool) {
	resp, err := hc.Post(frontURL+"/color", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode,
		resp.Header.Get("X-BGPC-Backend"),
		resp.Header.Get("X-BGPC-Rerouted") != "" || resp.Header.Get("X-BGPC-Spilled") != ""
}

func waitForState(t *testing.T, rt *Router, addr string, want BackendState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if s, ok := rt.BackendState(addr); ok && s == want {
			return
		}
		if time.Now().After(deadline) {
			s, _ := rt.BackendState(addr)
			t.Fatalf("backend %s state %v, want %v within %s", addr, s, want, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetChaosKillRestart is the full battery in one scenario so the
// phases share a fleet (boot cost dominates): dedup under concurrency,
// kill → ejection + re-homing + held error budget, restart → recovery
// + re-homing back.
func TestFleetChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos battery is not -short")
	}
	testutil.CheckGoroutineLeaks(t)
	fleet, rt, front := fleetUnderTest(t, 3)
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()

	// The job whose placement the scenario tracks: its cache key's ring
	// owner is the backend we will kill.
	const body = `{"preset":"channel","scale":0.15}`
	key := "preset:channel:0.15"
	victimAddr := rt.Ring().Owner(key)
	successor := rt.Ring().Order(key)[1]
	var victim *realBackend
	for _, b := range fleet {
		if b.addr == victimAddr {
			victim = b
		}
	}

	if st, be, _ := postJob(hc, front, body); st != 200 || be != victimAddr {
		t.Fatalf("baseline: status %d backend %s, want 200 via owner %s", st, be, victimAddr)
	}

	// --- Phase 1: concurrent identical jobs collapse (singleflight).
	dedupBefore := obs.RtrDedupHits.Load()
	gotDedup := false
	for round := 0; round < 10 && !gotDedup; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if st, _, _ := postJob(hc, front, body); st != 200 {
					t.Errorf("dedup phase: status %d", st)
				}
			}()
		}
		wg.Wait()
		gotDedup = obs.RtrDedupHits.Load() > dedupBefore
	}
	if !gotDedup {
		t.Fatal("rtr_dedup_hits never increased under concurrent identical jobs")
	}

	// --- Phase 2: kill the owner mid-load.
	ejBefore := obs.RtrEjections.Load()
	foBefore := obs.RtrFailovers.Load()

	var total, failed, reroutedOK atomic.Int64
	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	bodies := []string{body, `{"preset":"channel","scale":0.1}`, `{"preset":"movielens","scale":0.1}`}
	for w := 0; w < 3; w++ {
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st, _, rr := postJob(hc, front, bodies[(w+i)%len(bodies)])
				total.Add(1)
				switch {
				case st == 0 || st >= 500:
					failed.Add(1)
				case st == 200 && rr:
					reroutedOK.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	time.Sleep(100 * time.Millisecond) // some healthy-fleet load first
	victim.kill(t)

	// Ejection: FailAfter passive failures nudge an immediate probe, so
	// well under a second even with scheduler noise. 5s bounds -race.
	waitForState(t, rt, victimAddr, StateEjected, 5*time.Second)
	if obs.RtrEjections.Load() <= ejBefore {
		t.Error("rtr_ejections did not increase")
	}

	// Re-homing: the tracked key now lands on its ring successor.
	st, be, _ := postJob(hc, front, body)
	if st != 200 || be != successor {
		t.Fatalf("after kill: status %d backend %s, want 200 via successor %s", st, be, successor)
	}
	if obs.RtrFailovers.Load() <= foBefore {
		t.Error("rtr_failovers did not increase across the kill")
	}

	// --- Phase 3: restart on the same port; the fleet re-absorbs it.
	recBefore := obs.RtrRecoveries.Load()
	if err := victim.start(); err != nil {
		t.Fatalf("restarting victim: %v", err)
	}
	waitForState(t, rt, victimAddr, StateHealthy, 5*time.Second)
	if obs.RtrRecoveries.Load() <= recBefore {
		t.Error("rtr_recoveries did not increase")
	}

	// Re-homing back: ownership returns to the restarted daemon once
	// the router sees it healthy; allow a little time.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, be, _ := postJob(hc, front, body)
		if st == 200 && be == victimAddr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ownership never returned: status %d backend %s, want 200 via %s", st, be, victimAddr)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Let the recovered fleet take some more load before tallying.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	loadWG.Wait()

	// Error budget: failover converted the outage into rerouted 2xx, so
	// client-visible faults through a full kill/restart cycle stay
	// bounded — no 5xx storm. In-flight requests cut mid-body at the
	// kill instant are the only legitimate casualties.
	tot, fail := total.Load(), failed.Load()
	if tot < 20 {
		t.Fatalf("load loop issued only %d requests", tot)
	}
	if frac := float64(fail) / float64(tot); frac > 0.05 {
		t.Errorf("failure fraction %.3f (%d/%d) exceeds 5%% budget", frac, fail, tot)
	}
	if reroutedOK.Load() == 0 {
		t.Error("no request was served with a reroute marker during the outage")
	}

	// The eligible-backend gauge is back to the full fleet.
	if got := rt.eligibleCount(); got != 3 {
		t.Errorf("eligible backends %d after recovery, want 3", got)
	}
}
