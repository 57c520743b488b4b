package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgpc/internal/bench"
	"bgpc/internal/client"
	"bgpc/internal/obs"
)

// Options tunes a Run beyond what the workload spec describes.
type Options struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8972".
	BaseURL string
	// BaseURLs, when non-empty, lists every target of the run — fleet
	// routers or daemons addressed directly — and BaseURL is ignored.
	// Workers are pinned round-robin across targets (worker w drives
	// target w mod N), every target's /metrics is scraped before and
	// after, and the latency/counter deltas are merged, so one report
	// covers the whole fleet.
	BaseURLs []string
	// HTTPClient overrides the transport for both /color traffic and
	// the /metrics scrapes; nil uses a dedicated client.
	HTTPClient *http.Client
	// Logf, when set, receives progress lines. Nil discards.
	Logf func(format string, args ...any)
}

// Run executes the schedule open-loop against the daemon and distills
// the run into a bench.SLOReport.
//
// Open-loop means arrivals follow the schedule, not the daemon: the
// dispatcher sends each request at its offset whether or not earlier
// ones completed, which is what surfaces queueing collapse — a
// closed-loop generator slows down with the server and hides it
// (coordinated omission). The dispatcher hands work to a fixed pool of
// Clients goroutines through a channel buffered for the whole
// schedule, so dispatch itself never blocks on slow workers; if the
// pool can't keep up, the lag shows in MaxSchedLagMS instead of
// silently stretching the schedule.
//
// Daemon-side latency quantiles come from the /metrics scrape delta
// (before/after histograms subtracted), so a shared daemon with prior
// traffic doesn't contaminate the run's numbers.
func Run(ctx context.Context, sched *Schedule, opt Options) (*bench.SLOReport, error) {
	targets := opt.BaseURLs
	if len(targets) == 0 {
		if opt.BaseURL == "" {
			return nil, fmt.Errorf("load: Options.BaseURL or BaseURLs required")
		}
		targets = []string{opt.BaseURL}
	}
	for _, t := range targets {
		if t == "" {
			return nil, fmt.Errorf("load: empty target URL")
		}
	}
	httpc := opt.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	spec := sched.Spec

	befores := make([]map[string]*obs.MetricFamily, len(targets))
	for i, t := range targets {
		b, err := scrape(ctx, httpc, t)
		if err != nil {
			return nil, fmt.Errorf("load: pre-run metrics scrape of %s: %w", t, err)
		}
		befores[i] = b
	}

	// One no-retry client per target: the generator must observe every
	// failure, not paper over it — retries belong to real clients, not
	// probes.
	attemptTimeout := 30 * time.Second
	if spec.TimeoutMS > 0 {
		attemptTimeout = time.Duration(spec.TimeoutMS)*time.Millisecond + 10*time.Second
	}
	clis := make([]*client.Client, len(targets))
	for i, t := range targets {
		clis[i] = client.New(client.Config{
			BaseURL:        t,
			HTTPClient:     httpc,
			MaxAttempts:    1,
			AttemptTimeout: attemptTimeout,
		})
	}

	classes := make(map[string]int64, len(bench.SLOStatusClasses))
	for _, c := range bench.SLOStatusClasses {
		classes[c] = 0
	}
	backends := map[string]map[string]int64{}
	slowest := map[string][]bench.SLOSlowest{}
	var (
		mu            sync.Mutex // classes, backends, slowest, rejectedBytes
		rejectedBytes int64
		maxLagNS      int64 // atomic
		wg            sync.WaitGroup
	)

	// fps maps clean graph keys to the fingerprint the daemon returned
	// for them, the address delta items are issued against. Workers
	// learn from every successful full color and unlearn on a
	// definitive (non-recoverable) 404.
	var fps sync.Map
	work := make(chan Item, len(sched.Items))
	for w := 0; w < spec.Clients; w++ {
		cli := clis[w%len(clis)]
		// Outcomes that never name a backend (transport failures,
		// router-originated errors) are charged to the worker's target.
		fallback := strings.TrimPrefix(strings.TrimPrefix(targets[w%len(targets)], "http://"), "https://")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				began := time.Now()
				out := issue(ctx, cli, &fps, it)
				lat := time.Since(began)
				if out.backend == "" {
					out.backend = fallback
				}
				mu.Lock()
				classes[out.class]++
				bk := backends[out.backend]
				if bk == nil {
					bk = make(map[string]int64, len(bench.SLOStatusClasses))
					backends[out.backend] = bk
				}
				bk[out.class]++
				rejectedBytes += out.rej
				recordSlowest(slowest, out.class, bench.SLOSlowest{
					RequestID: out.reqID,
					TraceID:   out.traceID,
					MS:        float64(lat) / float64(time.Millisecond),
				})
				mu.Unlock()
			}
		}()
	}

	logf("dispatching %d requests at %.0f rps with %d clients", len(sched.Items), spec.RPS, spec.Clients)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	dispatched := 0
dispatch:
	for _, it := range sched.Items {
		wait := it.At - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		if lag := int64(time.Since(start) - it.At); lag > atomic.LoadInt64(&maxLagNS) {
			atomic.StoreInt64(&maxLagNS, lag)
		}
		work <- it
		dispatched++
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("load: run aborted after %d/%d requests: %w", dispatched, len(sched.Items), err)
	}

	afters := make([]map[string]*obs.MetricFamily, len(targets))
	for i, t := range targets {
		a, err := scrape(ctx, httpc, t)
		if err != nil {
			return nil, fmt.Errorf("load: post-run metrics scrape of %s: %w", t, err)
		}
		afters[i] = a
	}

	rep := &bench.SLOReport{
		Schema:        bench.SLOSchema,
		Seed:          spec.Seed,
		Git:           bench.GitDescribe(),
		GoVersion:     runtime.Version(),
		TargetRPS:     spec.RPS,
		AchievedRPS:   float64(dispatched) / wall.Seconds(),
		WallS:         wall.Seconds(),
		Requests:      int64(dispatched),
		StatusClasses: classes,
		MaxSchedLagMS: float64(atomic.LoadInt64(&maxLagNS)) / 1e6,
		Variants:      map[string]bench.SLOVariant{},
		RejectedBytes: rejectedBytes,
		DistinctKeys:  sched.DistinctKeys,
		Counters:      map[string]int64{},
	}
	if raw, err := json.Marshal(spec); err == nil {
		rep.Spec = raw
	}

	// Per-variant latency quantiles from the histogram scrape deltas.
	// With multiple targets each contributes its own delta; equal-shape
	// histograms (same binary, same buckets) merge by summation so
	// quantiles come out of the fleet-wide distribution.
	merged := map[string]obs.HistSnapshot{}
	for ti := range targets {
		fam := afters[ti]["bgpc_svc_latency_seconds"]
		if fam == nil {
			continue
		}
		for _, v := range obs.HistLabelValues(fam, "variant") {
			cur, err := obs.HistFromFamily(fam, map[string]string{"variant": v})
			if err != nil {
				return nil, fmt.Errorf("load: latency histogram %q: %w", v, err)
			}
			var prev obs.HistSnapshot
			if bfam := befores[ti]["bgpc_svc_latency_seconds"]; bfam != nil {
				if p, err := obs.HistFromFamily(bfam, map[string]string{"variant": v}); err == nil {
					prev = p
				} else if !errors.Is(err, obs.ErrNoSeries) {
					return nil, fmt.Errorf("load: latency histogram %q (pre-run): %w", v, err)
				}
			}
			delta, err := cur.Sub(prev)
			if err != nil {
				return nil, fmt.Errorf("load: latency histogram %q: %w", v, err)
			}
			if delta.Count == 0 {
				continue
			}
			sum, err := mergeHist(merged[v], delta)
			if err != nil {
				return nil, fmt.Errorf("load: latency histogram %q: %w", v, err)
			}
			merged[v] = sum
		}
	}
	for v, delta := range merged {
		rep.Variants[v] = bench.SLOVariant{
			Requests: int64(delta.Count),
			P50MS:    quantileMS(delta, 0.5),
			P99MS:    quantileMS(delta, 0.99),
			P999MS:   quantileMS(delta, 0.999),
		}
	}

	// Every service and router counter's delta rides along for
	// downstream analysis (summed across targets); the cache and
	// rejection counters also get first-class fields.
	for ti := range targets {
		for name := range afters[ti] {
			if !strings.HasPrefix(name, "bgpc_svc_") && !strings.HasPrefix(name, "bgpc_rtr_") {
				continue
			}
			if d, ok := obs.CounterDelta(befores[ti], afters[ti], name); ok {
				rep.Counters[name] += int64(d)
			}
		}
	}
	rep.Backends = backends
	if len(slowest) > 0 {
		rep.Slowest = slowest
	}
	rep.CacheHits = rep.Counters["bgpc_svc_cache_hits_total"]
	rep.CacheMisses = rep.Counters["bgpc_svc_cache_misses_total"]
	if lookups := rep.CacheHits + rep.CacheMisses; lookups > 0 {
		rep.CacheHitRatio = float64(rep.CacheHits) / float64(lookups)
	}

	// Error budget: only server faults and transport failures burn it.
	// 4xx rejections and 429 backpressure are the daemon protecting
	// itself — exactly the behavior a hostile mix is meant to confirm.
	eb := bench.SLOErrorBudget{
		Availability:   spec.SLO.Availability,
		Violations:     classes["5xx"] + classes["transport"],
		BudgetRequests: (1 - spec.SLO.Availability) * float64(dispatched),
	}
	if eb.BudgetRequests > 0 {
		eb.BurnedFraction = float64(eb.Violations) / eb.BudgetRequests
	}
	rep.ErrorBudget = eb

	logf("run complete: %d requests in %.1fs (%.1f rps achieved)", dispatched, rep.WallS, rep.AchievedRPS)
	return rep, nil
}

// outcome is issue's classification of one scheduled request: the SLO
// status class, the backend that served it (from the router's
// X-BGPC-Backend marker; "" when no backend was named, e.g. transport
// failures), the request-body bytes to charge to the rejected-bytes
// total (0 for accepted requests), and the correlation ids the serving
// side echoed — the request id (X-Request-ID) and distributed-trace id
// (X-BGPC-Trace) that key the per-class slowest lists.
type outcome struct {
	class   string
	backend string
	rej     int64
	reqID   string
	traceID string
}

// from fills the route-derived fields of an outcome from the response's
// hop markers; the class and rejected-bytes stay the caller's.
func (o outcome) from(ri client.RouteInfo) outcome {
	o.backend = ri.Backend
	o.reqID = ri.RequestID
	o.traceID = ri.TraceID
	return o
}

// recordSlowest inserts one finished request into its class's
// slowest-first list, keeping it sorted and capped at
// bench.MaxSlowestPerClass. Caller holds the run mutex.
func recordSlowest(m map[string][]bench.SLOSlowest, class string, e bench.SLOSlowest) {
	slow := m[class]
	if len(slow) == bench.MaxSlowestPerClass && e.MS <= slow[len(slow)-1].MS {
		return
	}
	i := len(slow)
	for i > 0 && slow[i-1].MS < e.MS {
		i--
	}
	slow = append(slow, bench.SLOSlowest{})
	copy(slow[i+1:], slow[i:])
	slow[i] = e
	if len(slow) > bench.MaxSlowestPerClass {
		slow = slow[:bench.MaxSlowestPerClass]
	}
	m[class] = slow
}

// issue sends one scheduled request and classifies it into an outcome.
//
// A success a fleet router served via failover or spillover (marked
// X-BGPC-Rerouted / X-BGPC-Spilled) classifies as "rerouted" rather
// than "2xx" — same availability, different placement, and the split
// is exactly what a kill-one-backend chaos run needs to quantify.
//
// Delta items are issued against the fingerprint learned for their key.
// With none learned, or when the daemon answers 404 (the base graph was
// evicted or the daemon restarted), the item degrades to its full-color
// request — the protocol's prescribed client fallback — and the outcome
// of that fallback is what gets classified; a successful fallback after
// a 404 classifies as "fallback", so the skipped incremental path shows.
func issue(ctx context.Context, cli *client.Client, fps *sync.Map, it Item) outcome {
	rctx := ctx
	if it.CancelAfter > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, it.CancelAfter)
		defer cancel()
	}
	okClass := func(ri client.RouteInfo) string {
		if ri.Spilled || ri.Rerouted {
			return "rerouted"
		}
		return "2xx"
	}
	missed := false
	if it.Delta != nil {
		if v, ok := fps.Load(it.Key); ok {
			fp := v.(string)
			_, ri, err := cli.DeltaRouted(rctx, fp, *it.Delta)
			if err == nil {
				return outcome{class: okClass(ri)}.from(ri)
			}
			if it.CancelAfter > 0 && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
				return outcome{class: "canceled"}.from(ri)
			}
			var ae *client.APIError
			if errors.As(err, &ae) {
				if ae.Status != http.StatusNotFound {
					switch {
					case ae.Status == http.StatusTooManyRequests:
						return outcome{class: "429"}.from(ae.Route)
					case ae.Status >= 500:
						return outcome{class: "5xx"}.from(ae.Route)
					default:
						return outcome{class: "4xx"}.from(ae.Route)
					}
				}
				// 404: the fingerprint is gone; unlearn it and fall
				// through to the full color, which re-learns. Unless the
				// daemon marked the miss recoverable — its WAL still
				// holds the state and a recovery race must not make the
				// generator forget a durable fingerprint; keep it and
				// let this item fall back to a full color just once.
				if !ae.Recoverable {
					fps.CompareAndDelete(it.Key, v)
				}
				missed = true
			} else {
				return outcome{class: "transport"}
			}
		}
	}
	resp, ri, err := cli.ColorRouted(rctx, it.Req)
	if err == nil {
		if it.Hostile == "" && resp.Fingerprint != "" {
			fps.Store(it.Key, resp.Fingerprint)
		}
		if missed {
			return outcome{class: "fallback"}.from(ri)
		}
		return outcome{class: okClass(ri)}.from(ri)
	}
	bodyBytes := func() int64 {
		raw, merr := json.Marshal(it.Req)
		if merr != nil {
			return 0
		}
		return int64(len(raw))
	}
	if it.CancelAfter > 0 && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		return outcome{class: "canceled"}.from(ri)
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch {
		case ae.Status == http.StatusTooManyRequests:
			return outcome{class: "429"}.from(ae.Route)
		case ae.Status >= 500:
			return outcome{class: "5xx"}.from(ae.Route)
		default:
			// 400/413-class rejections: the bytes the daemon refused.
			return outcome{class: "4xx", rej: bodyBytes()}.from(ae.Route)
		}
	}
	return outcome{class: "transport"}
}

// mergeHist sums two same-shape histogram snapshots (the multi-target
// merge). An empty a passes b through.
func mergeHist(a, b obs.HistSnapshot) (obs.HistSnapshot, error) {
	if len(a.Buckets) == 0 && a.Count == 0 {
		return b, nil
	}
	if len(a.Bounds) != len(b.Bounds) || len(a.Buckets) != len(b.Buckets) {
		return obs.HistSnapshot{}, fmt.Errorf("histogram shapes differ across targets (%d vs %d buckets)",
			len(a.Buckets), len(b.Buckets))
	}
	out := obs.HistSnapshot{
		Bounds:  a.Bounds,
		Buckets: make([]int64, len(a.Buckets)),
		Count:   a.Count + b.Count,
		Sum:     a.Sum + b.Sum,
	}
	for i := range a.Buckets {
		out.Buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	return out, nil
}

// quantileMS converts a seconds-histogram quantile to milliseconds,
// mapping the empty-histogram NaN to 0 so reports stay JSON-encodable.
func quantileMS(s obs.HistSnapshot, q float64) float64 {
	v := s.Quantile(q)
	if v != v { // NaN
		return 0
	}
	return v * 1000
}

// scrape fetches and parses the daemon's Prometheus exposition.
func scrape(ctx context.Context, httpc *http.Client, baseURL string) (map[string]*obs.MetricFamily, error) {
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("GET /metrics: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return obs.ParseExposition(io.LimitReader(resp.Body, 16<<20))
}
