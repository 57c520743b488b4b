package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os/exec"
	"strings"
)

// This file defines the SLO report — the perf-trajectory artifact a
// bgpcload run emits (BENCH_pr<N>.json) and later PRs regress against.
// The schema lives here, next to the bench artifact it complements, so
// the load generator, the CI checker, and the compare tool all share
// one definition with one validator.

// SLOSchema is the schema tag of a serialized SLOReport.
const SLOSchema = "bgpc-slo/v1"

// SLOStatusClasses are the request outcome classes a report must
// partition every scheduled request into. "2xx" is success (possibly
// degraded), "rerouted" success that a fleet router served via
// failover or spillover rather than the key's ring owner (absent in
// single-daemon runs), "fallback" a delta answered 404 whose
// full-color fallback succeeded (the incremental path was skipped),
// "4xx" client-fault rejections (400/413), "429" backpressure (queue,
// budget, quarantine), "5xx" server faults, "canceled" requests the
// schedule canceled client-side, and "transport" connection-level
// failures.
var SLOStatusClasses = []string{"2xx", "rerouted", "fallback", "4xx", "429", "5xx", "canceled", "transport"}

// SLOVariant is the daemon-side latency distribution of one algorithm
// variant over the run, reconstructed from the /metrics scrape delta
// and estimated with obs.HistSnapshot.Quantile.
type SLOVariant struct {
	// Requests is the number of latency observations the daemon
	// recorded for this variant during the run.
	Requests int64 `json:"requests"`
	// P50MS/P99MS/P999MS are latency quantile estimates in
	// milliseconds. 0 when Requests is 0.
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
}

// SLOErrorBudget is the run's availability accounting. The budget is
// (1 − Availability) × Requests failures; Violations counts server
// faults (5xx) and transport failures — NOT 4xx rejections or 429
// backpressure, which are the daemon doing its job — and
// BurnedFraction is Violations / budget.
type SLOErrorBudget struct {
	Availability   float64 `json:"availability"`
	Violations     int64   `json:"violations"`
	BudgetRequests float64 `json:"budget_requests"`
	BurnedFraction float64 `json:"burned_fraction"`
}

// SLOReport is the machine-readable result of one bgpcload run: the
// perf-trajectory entry. Seed plus the embedded spec reproduce the
// exact request schedule; Git attributes the entry to a tree state.
type SLOReport struct {
	Schema string `json:"schema"`
	// Seed is the workload seed the schedule was built from.
	Seed uint64 `json:"seed"`
	// Git is `git describe --always --dirty` at generation time
	// (empty outside a repository).
	Git string `json:"git,omitempty"`
	// GoVersion stamps the toolchain (runtime.Version()).
	GoVersion string `json:"go_version,omitempty"`
	// Spec is the normalized workload spec, embedded verbatim so the
	// run is reproducible from the artifact alone.
	Spec json.RawMessage `json:"spec,omitempty"`

	// TargetRPS is the configured open-loop rate; AchievedRPS is
	// completed requests over the measured wall time.
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	WallS       float64 `json:"wall_s"`
	// Requests is the total scheduled request count; StatusClasses
	// partitions it (values sum to Requests).
	Requests      int64            `json:"requests"`
	StatusClasses map[string]int64 `json:"status_classes"`
	// MaxSchedLagMS is the worst observed lag between an arrival's
	// scheduled offset and its actual dispatch — the open-loop health
	// indicator (a saturated generator, not daemon, shows here).
	MaxSchedLagMS float64 `json:"max_sched_lag_ms"`

	// Variants holds per-variant daemon-side latency quantiles.
	Variants map[string]SLOVariant `json:"variants"`

	// Cache and rejection accounting. CacheHitRatio is hits over
	// (hits+misses) from the scrape delta; RejectedBytes totals the
	// request-body bytes of rejected (non-2xx) requests.
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	RejectedBytes int64   `json:"rejected_bytes"`
	// DistinctKeys is the fingerprint-population size actually sent.
	DistinctKeys int `json:"distinct_keys"`

	// Counters is the scrape delta of every bgpc_svc_* counter over
	// the run (exposition names, e.g. "bgpc_svc_too_large_total").
	// Fleet runs also carry bgpc_rtr_* router counters here.
	Counters map[string]int64 `json:"counters"`

	// Backends, when the run targeted a router-fronted fleet (or
	// multiple daemons directly), breaks the status classes down per
	// serving backend: backend address → class → count. Responses that
	// never reached a backend (transport failures, router-originated
	// 503s) are attributed to the target they were sent to.
	Backends map[string]map[string]int64 `json:"backends,omitempty"`

	// Slowest records the top-K slowest requests per status class —
	// request id, trace id (when the target echoed X-BGPC-Trace) and
	// client-observed latency, slowest first. Additive in bgpc-slo/v1:
	// absent in older artifacts, capped at MaxSlowestPerClass. It turns
	// a bad quantile into something actionable: the ids to paste into
	// /debug/requests/{id} and /rtr/trace/{traceid}.
	Slowest map[string][]SLOSlowest `json:"slowest,omitempty"`

	ErrorBudget SLOErrorBudget `json:"error_budget"`
}

// MaxSlowestPerClass caps each status class's Slowest list.
const MaxSlowestPerClass = 5

// SLOSlowest identifies one slow request for post-run drill-down.
type SLOSlowest struct {
	RequestID string  `json:"request_id,omitempty"`
	TraceID   string  `json:"trace_id,omitempty"`
	MS        float64 `json:"ms"`
}

// Validate checks the report's schema invariants: the tag, the status
// classes partitioning the request count, ordered finite quantiles,
// and sane ratios. It is the contract the CI loadgen job enforces on
// every trajectory artifact.
func (r *SLOReport) Validate() error {
	if r.Schema != SLOSchema {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, SLOSchema)
	}
	if r.Requests <= 0 {
		return fmt.Errorf("bench: non-positive request count %d", r.Requests)
	}
	if r.TargetRPS <= 0 || math.IsNaN(r.TargetRPS) || math.IsInf(r.TargetRPS, 0) {
		return fmt.Errorf("bench: bad target RPS %g", r.TargetRPS)
	}
	known := map[string]bool{}
	for _, c := range SLOStatusClasses {
		known[c] = true
	}
	var sum int64
	for class, n := range r.StatusClasses {
		if !known[class] {
			return fmt.Errorf("bench: unknown status class %q", class)
		}
		if n < 0 {
			return fmt.Errorf("bench: negative count %d for class %s", n, class)
		}
		sum += n
	}
	if sum != r.Requests {
		return fmt.Errorf("bench: status classes sum to %d, want %d", sum, r.Requests)
	}
	for be, byClass := range r.Backends {
		if be == "" {
			return fmt.Errorf("bench: empty backend name in breakdown")
		}
		for class, n := range byClass {
			if !known[class] {
				return fmt.Errorf("bench: unknown status class %q for backend %s", class, be)
			}
			if n < 0 {
				return fmt.Errorf("bench: negative count %d for backend %s class %s", n, be, class)
			}
		}
	}
	for class, slow := range r.Slowest {
		if !known[class] {
			return fmt.Errorf("bench: unknown status class %q in slowest", class)
		}
		if len(slow) > MaxSlowestPerClass {
			return fmt.Errorf("bench: %d slowest entries for class %s, cap is %d", len(slow), class, MaxSlowestPerClass)
		}
		for i, s := range slow {
			if s.MS < 0 || math.IsNaN(s.MS) || math.IsInf(s.MS, 0) {
				return fmt.Errorf("bench: slowest[%s][%d] has bad latency %g", class, i, s.MS)
			}
			if i > 0 && s.MS > slow[i-1].MS {
				return fmt.Errorf("bench: slowest[%s] not ordered slowest-first at %d", class, i)
			}
		}
	}
	for name, v := range r.Variants {
		if v.Requests < 0 {
			return fmt.Errorf("bench: variant %s has negative request count", name)
		}
		qs := []float64{v.P50MS, v.P99MS, v.P999MS}
		for _, q := range qs {
			if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
				return fmt.Errorf("bench: variant %s has bad quantile %g", name, q)
			}
		}
		if v.Requests > 0 && (v.P50MS > v.P99MS || v.P99MS > v.P999MS) {
			return fmt.Errorf("bench: variant %s quantiles out of order: %v", name, qs)
		}
	}
	if r.CacheHitRatio < 0 || r.CacheHitRatio > 1 || math.IsNaN(r.CacheHitRatio) {
		return fmt.Errorf("bench: cache hit ratio %g outside [0,1]", r.CacheHitRatio)
	}
	if r.RejectedBytes < 0 {
		return fmt.Errorf("bench: negative rejected bytes %d", r.RejectedBytes)
	}
	eb := r.ErrorBudget
	if eb.Availability <= 0 || eb.Availability >= 1 {
		return fmt.Errorf("bench: availability target %g outside (0,1)", eb.Availability)
	}
	if eb.Violations < 0 || eb.BurnedFraction < 0 || math.IsNaN(eb.BurnedFraction) || math.IsInf(eb.BurnedFraction, 0) {
		return fmt.Errorf("bench: bad error budget %+v", eb)
	}
	return nil
}

// GitDescribe returns `git describe --always --dirty` for the working
// tree, or "" when git or a repository is unavailable — artifact
// stamping is best-effort and must never fail a run.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
