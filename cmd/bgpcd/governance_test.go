package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"bgpc/internal/client"
	"bgpc/internal/service"
	"bgpc/internal/testutil"
)

const hostileMtx = "%%MatrixMarket matrix coordinate pattern general\n" +
	"2000000 2000000 1000000000000\n"

// TestSelftestMode runs the deploy-time smoke check end to end: the
// flag must boot the in-process daemon, drive the client battery, and
// exit cleanly with a PASS report.
func TestSelftestMode(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	out := &lineCapture{}
	ctx, cancel := context.WithTimeout(context.Background(), testutil.Scale(60*time.Second))
	defer cancel()
	if err := run(ctx, []string{"-selftest"}, out); err != nil {
		t.Fatalf("selftest: %v\n%s", err, out.buf.String())
	}
	got := out.buf.String()
	if !strings.Contains(got, "selftest: PASS") {
		t.Fatalf("no PASS line in output:\n%s", got)
	}
}

// TestDaemonGovernanceFlags boots a real daemon with a tight memory
// budget and parse caps and checks the operator-visible contract: the
// startup banner reports the budget, hostile headers bounce as 413,
// honest jobs still verify, and the nnz cap flag gates inputs the
// library defaults would admit.
func TestDaemonGovernanceFlags(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	out, shutdown := startDaemonCapture(t, "-mem-budget", "16000000", "-max-nnz", "5")
	defer shutdown()
	base, _ := out.addr()
	base = "http://" + base

	if !strings.Contains(out.buf.String(), "memory budget 16000000 bytes") {
		t.Fatalf("no budget banner in startup output:\n%s", out.buf.String())
	}

	hc := &http.Client{Timeout: testutil.Scale(30 * time.Second)}
	code, body, err := postJSON(hc, base, service.ColorRequest{Matrix: hostileMtx})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("hostile header: status %d, want 413: %s", code, body)
	}

	// tinyMtx declares 7 entries: over the -max-nnz 5 cap, even though
	// the library default would admit it.
	tiny := "%%MatrixMarket matrix coordinate pattern general\n" +
		"3 4 7\n1 1\n1 2\n1 3\n2 3\n2 4\n3 2\n3 4\n"
	code, body, err = postJSON(hc, base, service.ColorRequest{Matrix: tiny})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-nnz-cap matrix: status %d, want 413: %s", code, body)
	}

	// A matrix inside every cap is still served.
	small := "%%MatrixMarket matrix coordinate pattern general\n" +
		"2 2 3\n1 1\n1 2\n2 2\n"
	code, body, err = postJSON(hc, base, service.ColorRequest{Matrix: small})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("in-cap matrix: status %d: %s", code, body)
	}
}

// startDaemonCapture is startDaemon but also hands back the output
// capture so tests can assert on startup banners.
func startDaemonCapture(t *testing.T, extraArgs ...string) (*lineCapture, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &lineCapture{}
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "2"}, extraArgs...)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()
	testutil.WaitFor(t, 5*time.Second, func() bool {
		_, ok := out.addr()
		return ok
	}, "daemon to print its listen address")
	return out, func() {
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
}

// TestDaemonE2EClientSeesEveryFault is the acceptance walk for the
// client's one failure policy against a live daemon: under a fault
// schedule of six handler 500s, a one-attempt client sends every call
// over real HTTP and sees each injected fault as the server's own
// answer — nothing is refused locally — and once the schedule
// auto-disarms, the next call succeeds.
func TestDaemonE2EClientSeesEveryFault(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const faults = 6
	base, shutdown := startDaemon(t, "-failpoints", fmt.Sprintf("svc.handleColor=err@%d", faults))
	defer shutdown()

	tiny := "%%MatrixMarket matrix coordinate pattern general\n" +
		"3 4 7\n1 1\n1 2\n1 3\n2 3\n2 4\n3 2\n3 4\n"
	c := client.New(client.Config{BaseURL: base, MaxAttempts: 1})
	ctx, cancel := context.WithTimeout(context.Background(), testutil.Scale(60*time.Second))
	defer cancel()

	for i := 0; i < faults; i++ {
		_, err := c.Color(ctx, service.ColorRequest{Matrix: tiny})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError ||
			!strings.Contains(apiErr.Message, "injected handler fault") {
			t.Fatalf("call %d: err = %v, want the daemon's injected 500", i+1, err)
		}
	}
	// The schedule is spent: the daemon heals and the very next call
	// is served.
	if _, err := c.Color(ctx, service.ColorRequest{Matrix: tiny}); err != nil {
		t.Fatalf("call after the fault schedule: %v", err)
	}
}
