// Command bgpcd is the coloring daemon: it serves BGPC and D2GC jobs
// over an HTTP/JSON API on a bounded worker pool with admission
// control, per-request deadlines, and graceful drain on SIGTERM.
//
// Usage:
//
//	bgpcd [-addr :8972] [-workers N] [-queue N]
//	      [-timeout 30s] [-max-timeout 2m] [-cache 64] [-max-threads N]
//	      [-log-json]
//	      [-watchdog 0] [-quarantine 3] [-quarantine-for 30s]
//	      [-mem-budget BYTES] [-max-job-bytes BYTES]
//	      [-max-rows N] [-max-cols N] [-max-nnz N] [-max-line-bytes N]
//	      [-failpoints name=kind[:arg][@times][#skip];…]
//	      [-wal-dir DIR] [-wal-sync always|interval|never]
//	      [-wal-sync-interval 100ms] [-wal-segment-bytes N]
//	      [-wal-snapshot-every N]
//	      [-trace-ring 256]
//	      [-diag-dir DIR] [-diag-latency 1s] [-diag-max-bundles 8]
//	      [-selftest]
//
// API (see internal/service for the full request/response schema):
//
//	POST /color    run a job; 200 on success (possibly degraded),
//	               400 malformed, 413 estimated footprint over the
//	               per-job cap or whole budget, 429 queue full, byte
//	               budget exhausted, or deadline expired while queued
//	               (with Retry-After), 503 draining
//	GET  /healthz  liveness
//	GET  /metrics  Prometheus text exposition: counters, live gauges
//	               (workers, queue capacity and depth, active jobs,
//	               cache size, budget), and latency/size histograms by
//	               algorithm variant
//	GET  /debug/requests       the -trace-ring of recent request
//	               timelines, newest first (JSON)
//	GET  /debug/requests/{id}  one request's timeline by correlation id
//	GET  /debug/trace/{traceid}  this process's trace fragments
//	               for one trace id (JSON span tree), read from the same
//	               ring
//
// Every request carries a correlation id — adopted from a client's
// traceparent or X-Request-ID header, minted otherwise — echoed as the
// X-Request-ID response header and in every JSON body, and logged in
// one structured access line per request (slog; -log-json switches the
// handler to JSON).
//
// With -wal-dir the daemon appends every accepted coloring and delta
// to a segmented write-ahead log; on boot it recovers the newest valid
// snapshot plus the log tail, truncating a torn tail and quarantining
// corrupted segments, re-verifies every recovered coloring before it
// re-enters the cache, and on disk failure trips a one-way fuse to
// in-memory-only serving (X-BGPC-Durability: none) rather than erroring.
//
// On SIGTERM/SIGINT the daemon stops accepting connections, lets
// admitted jobs finish (bounded by -drain-grace), then exits.
//
// Fault injection for chaos testing: -failpoints (or the
// BGPC_FAILPOINTS environment variable, which is applied first) arms
// named failpoints across the serving path; armed points are logged at
// startup. See internal/failpoint for the grammar and README's
// "Failure model" for the containment guarantees.
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
	"bgpc/internal/limits"
	"bgpc/internal/service"
	"bgpc/internal/trace"
	"bgpc/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgpcd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is canceled (signal) and
// the drain completes. It prints the bound address as its first output
// line so callers using an ephemeral port (":0") can find it.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bgpcd", flag.ContinueOnError)
	addr := fs.String("addr", ":8972", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 0, "concurrent coloring jobs (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "bounded queue depth beyond running jobs (0 = 2×workers)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline when the request sets none")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "upper bound on any requested deadline")
	cache := fs.Int("cache", 64, "content-hash graph cache entries (negative disables)")
	maxThreads := fs.Int("max-threads", 0, "cap on per-job threads a client may request (0 = GOMAXPROCS)")
	drainGrace := fs.Duration("drain-grace", 30*time.Second, "how long shutdown waits for in-flight jobs")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON instead of logfmt-style text")
	watchdog := fs.Duration("watchdog", 0, "cancel jobs making no coloring progress for this window and finish them sequentially (0 disables)")
	quarAfter := fs.Int("quarantine", 3, "worker panics on one graph before it is quarantined (negative disables)")
	quarFor := fs.Duration("quarantine-for", 30*time.Second, "how long a quarantined graph is refused")
	failpoints := fs.String("failpoints", "", "arm failpoints for chaos testing, e.g. 'pool.beforeRun=panic@1;par.dispatch=delay:2ms' (applied after $"+failpoint.EnvVar+")")
	memBudget := fs.Int64("mem-budget", 0, "total bytes of estimated job memory admitted at once (0 = half of GOMEMLIMIT when set, else unlimited; negative = unlimited)")
	maxJobBytes := fs.Int64("max-job-bytes", 0, "reject any single job whose estimated footprint exceeds this many bytes with 413 (0 = no per-job cap)")
	maxRows := fs.Int("max-rows", 0, "reject matrices declaring more rows than this (0 = library default)")
	maxCols := fs.Int("max-cols", 0, "reject matrices declaring more columns than this (0 = library default)")
	maxNNZ := fs.Int64("max-nnz", 0, "reject matrices declaring more nonzeros than this (0 = library default)")
	maxLineBytes := fs.Int("max-line-bytes", 0, "reject matrix lines longer than this many bytes (0 = library default)")
	selftestFlag := fs.Bool("selftest", false, "start an in-process daemon, run the client battery against it, print a report, and exit non-zero on failure")
	walDir := fs.String("wal-dir", "", "write-ahead-log data directory for durable colorings (empty disables durability)")
	walSync := fs.String("wal-sync", wal.SyncInterval, "WAL fsync policy: always (fsync each append), interval (batched), or never")
	walSyncInterval := fs.Duration("wal-sync-interval", 100*time.Millisecond, "batch fsync period under -wal-sync interval")
	walSegmentBytes := fs.Int64("wal-segment-bytes", 0, "rotate WAL segments past this many bytes (0 = 4 MiB)")
	walSnapshotEvery := fs.Int("wal-snapshot-every", 0, "compact the WAL into a snapshot every N appends (0 = 512, negative disables)")
	traceRing := fs.Int("trace-ring", 0, "completed /color requests kept, every one traced, for /debug/requests and /debug/trace (< 1 = 256)")
	diagDir := fs.String("diag-dir", "", "flight-recorder directory: anomalies (watchdog, WAL fuse, slow requests) write diagnostic bundles here (empty disables)")
	diagLatency := fs.Duration("diag-latency", 0, "with -diag-dir, any request at least this slow triggers a diagnostic bundle (0 disables the latency trigger)")
	diagMaxBundles := fs.Int("diag-max-bundles", 0, "bundles kept on disk before the oldest is rotated out (0 = 8)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fault schedules: environment first (the CI chaos job's path),
	// then the flag, so a flag spec can extend or re-arm env points.
	if err := failpoint.ArmFromEnv(); err != nil {
		return fmt.Errorf("%s: %w", failpoint.EnvVar, err)
	}
	if *failpoints != "" {
		if err := failpoint.ArmFromSpec(*failpoints); err != nil {
			return fmt.Errorf("-failpoints: %w", err)
		}
	}
	if active := failpoint.Active(); len(active) > 0 {
		fmt.Fprintf(stdout, "bgpcd: failpoints armed: %s\n", strings.Join(active, ", "))
	}

	// Structured logging: one access line per request plus contained
	// fault reports, all through slog so every line is parseable and
	// carries the request id where one applies.
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		CacheEntries:    *cache,
		MaxThreads:      *maxThreads,
		WatchdogWindow:  *watchdog,
		QuarantineAfter: *quarAfter,
		QuarantineFor:   *quarFor,
		MemBudget:       *memBudget,
		MaxJobBytes:     *maxJobBytes,
		ParseLimits: limits.ParseLimits{
			MaxRows:      *maxRows,
			MaxCols:      *maxCols,
			MaxNNZ:       *maxNNZ,
			MaxLineBytes: *maxLineBytes,
		},
		Log:         logger,
		TraceRing:   *traceRing,
		DiagLatency: *diagLatency,
	}
	if *diagDir != "" {
		fl, err := trace.NewFlight(trace.FlightConfig{
			Dir:        *diagDir,
			MaxBundles: *diagMaxBundles,
			Process:    "bgpcd",
			Log:        logger,
		})
		if err != nil {
			return fmt.Errorf("-diag-dir %s: %w", *diagDir, err)
		}
		cfg.Diag = fl
	}
	if *selftestFlag {
		return selftest(ctx, cfg, stdout)
	}
	if *walDir != "" {
		l, stats, err := wal.Open(wal.Options{
			Dir:           *walDir,
			Sync:          *walSync,
			Interval:      *walSyncInterval,
			SegmentBytes:  *walSegmentBytes,
			SnapshotEvery: *walSnapshotEvery,
		})
		if err != nil {
			return fmt.Errorf("-wal-dir %s: %w", *walDir, err)
		}
		defer l.Close()
		fmt.Fprintf(stdout, "bgpcd: wal recovered %s (%s)\n", *walDir, stats)
		cfg.WAL = l
	}
	srv := service.New(cfg)
	if cfg.WAL != nil {
		fmt.Fprintf(stdout, "bgpcd: wal warmed %d colorings into the cache\n", srv.WarmedColorings())
	}
	if b := srv.MemBudget(); b > 0 {
		fmt.Fprintf(stdout, "bgpcd: memory budget %d bytes\n", b)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bgpcd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let in-flight HTTP
	// requests and admitted pool jobs finish within the grace window.
	fmt.Fprintf(stdout, "bgpcd: draining (grace %s)\n", *drainGrace)
	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(grace)
	if err := srv.Drain(grace); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	fmt.Fprintln(stdout, "bgpcd: drained, exiting")
	return nil
}
