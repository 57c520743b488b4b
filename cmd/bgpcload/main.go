// Command bgpcload is the workload-mix load generator and SLO harness
// for bgpcd: it drives a daemon open-loop with a seeded, reproducible
// blend of graph presets, algorithm variants, cache-skewed fingerprint
// popularity, client cancellations and hostile inputs, then writes a
// machine-readable SLO report (schema bgpc-slo/v1) built from the
// daemon's /metrics scrape delta.
//
// Usage:
//
//	bgpcload -url http://127.0.0.1:8972 \
//	  -seed 1206 -rps 40 -duration 30s \
//	  -mix 'channel@0.1=3,afshell@0.1:V-V-64=1,movielens@0.1:N1-N2=2' \
//	  -zipf 1.1 -fingerprints 12 -cancel 0.02 -hostile 0.05 \
//	  -out BENCH_pr6.json -max-burn 0.5
//
// -target takes a comma-separated list of base URLs and spreads the
// worker pool round-robin across them — point it at a bgpcrouter (one
// URL; the router fans the fleet out itself) or at several daemons
// directly. Fleet runs gain a per-backend outcome breakdown and a
// "rerouted" status class counting successes a router served via
// failover or spillover. A delta answered 404 whose full-color fallback
// succeeded counts as "fallback", in fleet and single-daemon runs.
//
// A JSON spec file (-config) may supply the same knobs; flags override
// it. -spawn boots a throwaway in-process daemon instead of targeting
// -url. -check validates an existing report without running anything —
// the CI gate. The same seed and spec always produce the identical
// request schedule (-print-schedule shows it without sending traffic).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"bgpc/internal/bench"
	"bgpc/internal/load"
	"bgpc/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgpcload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bgpcload", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8972", "daemon base URL")
	target := fs.String("target", "", "comma-separated target base URLs (router or daemons); overrides -url")
	config := fs.String("config", "", "JSON workload spec file (flags override its fields)")
	seed := fs.Uint64("seed", 1, "schedule seed: same seed + same spec → identical request sequence")
	rps := fs.Float64("rps", 0, "open-loop target arrival rate")
	duration := fs.Duration("duration", 0, "run length (converted to ceil(rps×duration) requests)")
	requests := fs.Int("requests", 0, "exact request count (overrides -duration)")
	clients := fs.Int("clients", 0, "dispatch worker pool size (0 = 8)")
	mix := fs.String("mix", "", "workload mix: preset@scale[:algorithm[/mode]][~deltaRate][=weight],...")
	zipf := fs.Float64("zipf", 0, "Zipf exponent for fingerprint popularity (0 = uniform)")
	fingerprints := fs.Int("fingerprints", 0, "distinct-graph population per mix entry (0 = 8)")
	cancelRate := fs.Float64("cancel", 0, "fraction of requests canceled client-side in [0,1]")
	hostile := fs.Float64("hostile", 0, "fraction of requests replaced by hostile inputs in [0,1]")
	threads := fs.Int("threads", 0, "per-job thread count sent to the daemon (0 = daemon default)")
	timeoutMS := fs.Int64("timeout-ms", 0, "per-request deadline sent to the daemon (0 = daemon default)")
	deltaEdges := fs.Int("delta-edges", 0, "insert-batch size of scheduled delta requests (0 = 4)")
	availability := fs.Float64("availability", 0, "SLO availability objective in (0,1) (0 = 0.99)")
	out := fs.String("out", "", "write the SLO report JSON here (default stdout)")
	spawn := fs.Bool("spawn", false, "boot a throwaway in-process daemon and load it instead of -url")
	check := fs.String("check", "", "validate an existing report file and exit (no traffic)")
	maxBurn := fs.Float64("max-burn", -1, "fail when error-budget burn exceeds this fraction (<0 disables)")
	printSchedule := fs.Bool("print-schedule", false, "print the expanded request schedule and exit (no traffic)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *check != "" {
		return checkReport(*check, *maxBurn, stdout)
	}

	spec, err := buildSpec(fs, *config, specFlags{
		seed: *seed, rps: *rps, duration: *duration, requests: *requests,
		clients: *clients, mix: *mix, zipf: *zipf, fingerprints: *fingerprints,
		cancel: *cancelRate, hostile: *hostile, threads: *threads,
		timeoutMS: *timeoutMS, availability: *availability, deltaEdges: *deltaEdges,
	})
	if err != nil {
		return err
	}
	sched, err := load.BuildSchedule(spec)
	if err != nil {
		return err
	}
	if *printSchedule {
		return writeSchedule(sched, stdout)
	}

	targets := []string{*url}
	if *target != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*target, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("-target lists no URLs")
		}
	}
	if *spawn {
		stop, addr, err := spawnDaemon()
		if err != nil {
			return err
		}
		defer stop()
		targets = []string{"http://" + addr}
		fmt.Fprintf(stdout, "spawned in-process daemon on %s\n", addr)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	rep, err := load.Run(ctx, sched, load.Options{
		BaseURLs: targets,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "bgpcload: "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("generated report failed validation: %w", err)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote SLO report to %s\n", *out)
		summarize(rep, stdout)
	}
	if *maxBurn >= 0 && rep.ErrorBudget.BurnedFraction > *maxBurn {
		return fmt.Errorf("error-budget burn %.3f exceeds -max-burn %.3f",
			rep.ErrorBudget.BurnedFraction, *maxBurn)
	}
	return nil
}

// specFlags carries the flag values into buildSpec so fs.Visit can
// decide which of them were explicitly set.
type specFlags struct {
	seed                            uint64
	rps                             float64
	duration                        time.Duration
	requests, clients, fingerprints int
	mix                             string
	zipf, cancel, hostile           float64
	threads, deltaEdges             int
	timeoutMS                       int64
	availability                    float64
}

// buildSpec layers explicit flags over the optional -config file: the
// file provides the base spec, every flag the user actually set wins.
// With no file, flags alone must describe the workload.
func buildSpec(fs *flag.FlagSet, config string, f specFlags) (load.Spec, error) {
	var spec load.Spec
	if config != "" {
		file, err := os.Open(config)
		if err != nil {
			return spec, err
		}
		spec, err = load.ParseSpec(file)
		file.Close()
		if err != nil {
			return spec, err
		}
	}
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	// Seed defaults to 1 even unset so a bare flag-driven run is still
	// reproducible; a config file's seed wins unless -seed is explicit.
	if set["seed"] || config == "" {
		spec.Seed = f.seed
	}
	if set["rps"] {
		spec.RPS = f.rps
	}
	if set["duration"] {
		spec.DurationS = f.duration.Seconds()
		spec.Requests = 0 // re-derive from the new duration
	}
	if set["requests"] {
		spec.Requests = f.requests
	}
	if set["clients"] {
		spec.Clients = f.clients
	}
	if set["fingerprints"] {
		spec.Fingerprints = f.fingerprints
	}
	if set["zipf"] {
		spec.ZipfS = f.zipf
	}
	if set["cancel"] {
		spec.CancelRate = f.cancel
	}
	if set["hostile"] {
		spec.HostileRate = f.hostile
	}
	if set["threads"] {
		spec.Threads = f.threads
	}
	if set["timeout-ms"] {
		spec.TimeoutMS = f.timeoutMS
	}
	if set["delta-edges"] {
		spec.DeltaEdges = f.deltaEdges
	}
	if set["availability"] {
		spec.SLO.Availability = f.availability
	}
	if set["mix"] {
		entries, err := load.ParseMix(f.mix)
		if err != nil {
			return spec, err
		}
		spec.Mix = entries
	}
	return spec, nil
}

// checkReport is the CI gate: parse + validate an existing report and
// apply the burn ceiling, touching no network.
func checkReport(path string, maxBurn float64, stdout io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep bench.SLOReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if maxBurn >= 0 && rep.ErrorBudget.BurnedFraction > maxBurn {
		return fmt.Errorf("%s: error-budget burn %.3f exceeds -max-burn %.3f",
			path, rep.ErrorBudget.BurnedFraction, maxBurn)
	}
	fmt.Fprintf(stdout, "%s: valid %s report, %d requests, burn %.3f\n",
		path, rep.Schema, rep.Requests, rep.ErrorBudget.BurnedFraction)
	summarize(&rep, stdout)
	return nil
}

func summarize(rep *bench.SLOReport, w io.Writer) {
	fmt.Fprintf(w, "  seed %d  target %.0f rps  achieved %.1f rps  wall %.1fs  max-lag %.1fms\n",
		rep.Seed, rep.TargetRPS, rep.AchievedRPS, rep.WallS, rep.MaxSchedLagMS)
	fmt.Fprintf(w, "  classes %v  cache %.2f  rejected %dB over %d keys\n",
		rep.StatusClasses, rep.CacheHitRatio, rep.RejectedBytes, rep.DistinctKeys)
	for name, v := range rep.Variants {
		fmt.Fprintf(w, "  %-10s n=%-6d p50 %.2fms  p99 %.2fms  p999 %.2fms\n",
			name, v.Requests, v.P50MS, v.P99MS, v.P999MS)
	}
	if len(rep.Backends) > 0 {
		bes := make([]string, 0, len(rep.Backends))
		for be := range rep.Backends {
			bes = append(bes, be)
		}
		sort.Strings(bes)
		for _, be := range bes {
			fmt.Fprintf(w, "  backend %-22s %v\n", be, rep.Backends[be])
		}
	}
}

func writeSchedule(sched *load.Schedule, w io.Writer) error {
	fmt.Fprintf(w, "# %d items, %d distinct keys\n", len(sched.Items), sched.DistinctKeys)
	for _, it := range sched.Items {
		kind := it.Key
		if it.Delta != nil {
			kind += fmt.Sprintf(" delta(%d)", len(it.Delta.Insert))
		}
		if it.CancelAfter > 0 {
			kind += fmt.Sprintf(" cancel@%s", it.CancelAfter)
		}
		fmt.Fprintf(w, "%6d %12s %s\n", it.Index, it.At.Round(time.Microsecond), kind)
	}
	return nil
}

// spawnDaemon boots a loopback in-process daemon with the guardrails a
// hostile mix is meant to exercise (job-size cap, memory budget), and
// returns its address plus a shutdown func.
func spawnDaemon() (stop func(), addr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: service.New(service.Config{
		QueueDepth:  256,
		MaxJobBytes: 256 << 20,
		MemBudget:   1 << 30,
	})}
	go srv.Serve(ln)
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return stop, ln.Addr().String(), nil
}
