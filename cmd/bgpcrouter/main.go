// Command bgpcrouter is the fleet front for bgpcd: it consistent-
// hashes each job's graph key across N backend daemons (cache
// affinity), tracks per-backend health with passive proxy outcomes
// plus active /healthz probes, fails over past dead or ejected
// backends, spills past 429/413 budget rejections, walks a delta past
// backends that answer 404 (they do not hold its base) around the
// whole ring, and collapses identical concurrent jobs into one backend
// execution.
//
// Usage:
//
//	bgpcrouter -backends host:port,host:port,... [-addr :8970]
//	           [-vnodes 128] [-max-hops 3]
//	           [-fail-after 3] [-probe-interval 500ms] [-recover-probes 2]
//	           [-log-json]
//	           [-failpoints name=kind[:arg][@times][#skip];…]
//	           [-trace-ring 256]
//	           [-diag-dir DIR]
//
// API: the bgpcd job surface (POST /color, POST /color/{fp}/delta)
// proxied with routing headers added to every response —
//
//	X-BGPC-Backend   which backend served the job
//	X-BGPC-Rerouted  the ring owner was skipped (down or ejected)
//	X-BGPC-Spilled   the owner rejected 429/413 and a successor served
//	X-BGPC-Deduped   this response was fanned out from an identical
//	                 concurrent job (singleflight)
//
// plus the router's own endpoints:
//
//	GET /healthz       200 while ≥1 backend is eligible, else 503
//	GET /metrics       Prometheus exposition: rtr_* counters, per-
//	                   backend health gauges, proxied-latency histograms
//	GET /rtr/backends  fleet roster: index → address, health state
//	GET /rtr/trace/{traceid}    the assembled cross-process trace: the
//	                   router's hop spans merged with every backend's
//	                   fragments for that trace id
//	GET /debug/trace/{traceid}  the router's own fragments only, read
//	                   from its -trace-ring of completed requests
//
// /metrics is the router's one scrape surface, as on bgpcd.
//
// The router resolves one correlation id per request at ingress and
// echoes it (X-Request-ID) on every outcome, including router-
// originated errors. With tracing enabled the router joins or starts
// the W3C trace (echoed as X-BGPC-Trace) and mints a child span id per
// backend hop rather than forwarding traceparent verbatim, so each
// backend's spans parent to the exact attempt that reached it.
// Backpressure advice (Retry-After) passes through verbatim.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/router"
	"bgpc/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgpcrouter:", err)
		os.Exit(1)
	}
}

// run starts the router and blocks until ctx is canceled (signal). It
// prints the bound address as its first output line so callers using
// an ephemeral port (":0") can find it.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bgpcrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8970", "listen address (use :0 for an ephemeral port)")
	backends := fs.String("backends", "", "comma-separated bgpcd addresses forming the fleet (required)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 128)")
	maxHops := fs.Int("max-hops", 0, "backends one request may visit across failover and spillover; a delta's misses do not count (0 = default 3)")
	failAfter := fs.Int("fail-after", 0, "consecutive passive failures before a backend turns suspect (0 = default 3)")
	probeInterval := fs.Duration("probe-interval", 0, "active /healthz probe period (0 = default 500ms)")
	recoverProbes := fs.Int("recover-probes", 0, "consecutive probe successes an ejected backend needs to rejoin (0 = default 2)")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON instead of logfmt-style text")
	failpoints := fs.String("failpoints", "", "arm failpoints for chaos testing, e.g. 'router.probe=err@10' (applied after $"+failpoint.EnvVar+")")
	traceRing := fs.Int("trace-ring", 0, "completed routed requests kept, every one traced, for /debug/trace and /rtr/trace (< 1 = 256)")
	diagDir := fs.String("diag-dir", "", "flight-recorder directory: anomalies (a backend being ejected) write diagnostic bundles here (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backends == "" {
		return errors.New("-backends is required (comma-separated host:port list)")
	}

	if err := failpoint.ArmFromEnv(); err != nil {
		return fmt.Errorf("%s: %w", failpoint.EnvVar, err)
	}
	if *failpoints != "" {
		if err := failpoint.ArmFromSpec(*failpoints); err != nil {
			return fmt.Errorf("-failpoints: %w", err)
		}
	}
	if active := failpoint.Active(); len(active) > 0 {
		fmt.Fprintf(stdout, "bgpcrouter: failpoints armed: %s\n", strings.Join(active, ", "))
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}

	var members []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			members = append(members, b)
		}
	}
	logger := slog.New(handler)
	var diag *trace.Flight
	if *diagDir != "" {
		fl, err := trace.NewFlight(trace.FlightConfig{
			Dir:     *diagDir,
			Process: "bgpcrouter",
			Log:     logger,
		})
		if err != nil {
			return fmt.Errorf("-diag-dir %s: %w", *diagDir, err)
		}
		diag = fl
	}
	rt, err := router.New(router.Config{
		Backends: members,
		VNodes:   *vnodes,
		MaxHops:  *maxHops,
		Health: router.HealthConfig{
			FailAfter:     *failAfter,
			ProbeInterval: *probeInterval,
			RecoverProbes: *recoverProbes,
		},
		Log:       logger,
		TraceRing: *traceRing,
		Diag:      diag,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bgpcrouter: listening on %s (backends %s)\n", ln.Addr(), strings.Join(members, ", "))

	httpSrv := &http.Server{Handler: rt}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "bgpcrouter: shutting down")
	grace, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(grace); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "bgpcrouter: done")
	return nil
}
