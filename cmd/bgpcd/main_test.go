package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/obs"
	"bgpc/internal/service"
	"bgpc/internal/testutil"
	"bgpc/internal/verify"
)

// lineCapture is an io.Writer that lets the test wait for the daemon's
// "listening on" banner and extract the bound address.
type lineCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *lineCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *lineCapture) addr() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, line := range strings.Split(c.buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "bgpcd: listening on "); ok {
			return rest, true
		}
	}
	return "", false
}

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a shutdown function that triggers the drain path and waits
// for a clean exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &lineCapture{}
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "4", "-queue", "4"}, extraArgs...)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()

	var addr string
	testutil.WaitFor(t, 5*time.Second, func() bool {
		a, ok := out.addr()
		addr = a
		return ok
	}, "daemon to print its listen address")

	shutdown := func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("daemon exited with %v", err)
			}
		case <-time.After(testutil.Scale(10 * time.Second)):
			t.Error("daemon did not drain and exit after shutdown signal")
		}
	}
	return "http://" + addr, shutdown
}

func postJSON(client *http.Client, url string, req service.ColorRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url+"/color", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// TestDaemonE2EMixedLoad is the end-to-end battery from the issue:
// 32 concurrent clients hammer a live daemon with a mix of valid jobs,
// malformed matrices, and already-hopeless deadlines. Every 200 must
// carry a verifiably valid coloring; overload and garbage must surface
// as 429/400, never 500; and shutdown must drain cleanly.
func TestDaemonE2EMixedLoad(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	base, shutdown := startDaemon(t)

	// Reference graphs for client-side verification.
	graphs := map[string]*bipartite.Graph{}
	for _, name := range []string{"movielens", "channel", "nlpkkt"} {
		g, err := gen.Preset(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	algos := []string{"V-V", "V-V-64", "V-V-64D", "V-N1", "N1-N2", "N2-N2"}
	const badMtx = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n5 5\n"

	const clients = 32
	const reqsPerClient = 4
	var (
		mu       sync.Mutex
		statuses = map[int]int{}
	)
	client := &http.Client{Timeout: testutil.Scale(30 * time.Second)}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqsPerClient; r++ {
				var req service.ColorRequest
				var wantGraph *bipartite.Graph
				switch (c + r) % 4 {
				case 0, 1: // valid preset job
					name := []string{"movielens", "channel", "nlpkkt"}[(c+r)%3]
					req = service.ColorRequest{
						Preset: name, Scale: 0.05,
						Algorithm: algos[(c*reqsPerClient+r)%len(algos)],
						Threads:   1 + c%4,
					}
					wantGraph = graphs[name]
				case 2: // malformed matrix
					req = service.ColorRequest{Matrix: badMtx}
				case 3: // hopeless deadline on a bigger job
					req = service.ColorRequest{
						Preset: "channel", Scale: 0.3,
						Algorithm: "V-V", TimeoutMS: 1,
					}
					wantGraph = nil // may 200-degraded or 429; verified below if 200
				}
				status, raw, err := postJSON(client, base, req)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				mu.Lock()
				statuses[status]++
				mu.Unlock()
				switch status {
				case http.StatusOK:
					var resp service.ColorResponse
					if err := json.Unmarshal(raw, &resp); err != nil {
						t.Errorf("client %d: bad 200 body: %v", c, err)
						return
					}
					g := wantGraph
					if g == nil && req.Preset == "channel" && req.Scale == 0.3 {
						// deadline case: verify against its own graph
						var gerr error
						g, gerr = gen.Preset("channel", 0.3)
						if gerr != nil {
							t.Error(gerr)
							return
						}
					}
					if g != nil {
						if err := verify.BGPC(g, resp.Colors); err != nil {
							t.Errorf("client %d: invalid coloring from a 200: %v", c, err)
						}
					}
				case http.StatusBadRequest, http.StatusTooManyRequests:
					var e service.ErrorResponse
					if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
						t.Errorf("client %d: reject without an error body: %s", c, raw)
					}
				default:
					t.Errorf("client %d: unexpected status %d: %s", c, status, raw)
				}
			}
		}(c)
	}
	wg.Wait()

	t.Logf("status distribution: %v", statuses)
	if statuses[http.StatusOK] == 0 {
		t.Error("no request succeeded")
	}
	if statuses[http.StatusBadRequest] == 0 {
		t.Error("malformed matrices were not rejected with 400")
	}
	for code := range statuses {
		if code >= 500 {
			t.Errorf("server emitted a %d", code)
		}
	}

	// Health endpoints stay live under load aftermath.
	resp, err := client.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	shutdown()

	// After shutdown, the port must be closed.
	if _, _, err := postJSON(client, base, service.ColorRequest{Preset: "channel"}); err == nil {
		t.Error("daemon still accepting connections after drain")
	}
}

// TestDaemonDrainWaitsForInflight: a slow in-flight job survives a
// shutdown signal and completes with a 200.
func TestDaemonDrainWaitsForInflight(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	base, shutdown := startDaemon(t)
	client := &http.Client{Timeout: testutil.Scale(30 * time.Second)}

	type result struct {
		status int
		raw    []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		status, raw, err := postJSON(client, base, service.ColorRequest{
			Preset: "channel", Scale: 0.2, Algorithm: "N1-N2", Threads: 2,
		})
		resc <- result{status, raw, err}
	}()
	// Give the request a moment to be admitted, then pull the plug.
	time.Sleep(50 * time.Millisecond)
	shutdown()

	r := <-resc
	if r.err != nil {
		// The job may have finished before the signal landed and the
		// connection torn down after — but an admitted job must not be
		// dropped. An error here means the response never arrived.
		t.Fatalf("in-flight request dropped during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", r.status, r.raw)
	}
	var resp service.ColorResponse
	if err := json.Unmarshal(r.raw, &resp); err != nil {
		t.Fatal(err)
	}
	g, err := gen.Preset("channel", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g, resp.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonBadFlags: flag errors surface instead of hanging.
func TestDaemonBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-no-such-flag"}, io.Discard)
	if err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestDaemonStatszCounts exposes the queue/cache gauges over HTTP on
// /metrics, the daemon's one scrape surface: neither /statsz nor
// /debug/vars is routed.
func TestDaemonStatszCounts(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	base, shutdown := startDaemon(t)
	defer shutdown()
	client := &http.Client{Timeout: testutil.Scale(10 * time.Second)}

	if status, _, err := postJSON(client, base, service.ColorRequest{Preset: "movielens", Scale: 0.05}); err != nil || status != http.StatusOK {
		t.Fatalf("seed request: %d %v", status, err)
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) float64 {
		fam := fams[name]
		if fam == nil || fam.Type != "gauge" || len(fam.Samples) != 1 {
			t.Fatalf("no %s gauge on /metrics", name)
		}
		return fam.Samples[0].Value
	}
	if got := gauge("bgpc_svc_cached_graphs"); got != 1 {
		t.Errorf("cached_graphs = %v, want 1", got)
	}
	if got := gauge("bgpc_svc_workers"); got != 4 {
		t.Errorf("workers = %v, want 4", got)
	}
	for _, path := range []string{"/statsz", "/debug/vars"} {
		r, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, r.StatusCode)
		}
	}
}
