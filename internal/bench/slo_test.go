package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validSLO() *SLOReport {
	return &SLOReport{
		Schema:    SLOSchema,
		Seed:      42,
		TargetRPS: 100,
		WallS:     1.2,
		Requests:  120,
		StatusClasses: map[string]int64{
			"2xx": 100, "4xx": 8, "429": 6, "5xx": 1, "canceled": 3, "transport": 2,
		},
		Variants: map[string]SLOVariant{
			"N1-N2": {Requests: 60, P50MS: 1.1, P99MS: 4.5, P999MS: 9},
			"FF":    {Requests: 40, P50MS: 0.9, P99MS: 3.2, P999MS: 7},
			"d2/FF": {Requests: 0},
		},
		CacheHits: 70, CacheMisses: 30, CacheHitRatio: 0.7,
		RejectedBytes: 4096,
		DistinctKeys:  12,
		Counters:      map[string]int64{"bgpc_svc_too_large_total": 4},
		Slowest: map[string][]SLOSlowest{
			"2xx": {
				{RequestID: "4bf92f3577b34da6a3ce929d0e0e4736", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", MS: 9.5},
				{RequestID: "req-2", MS: 1.25},
			},
			"429": {{RequestID: "req-3", MS: 0.4}},
		},
		ErrorBudget: SLOErrorBudget{
			Availability: 0.995, Violations: 3, BudgetRequests: 0.6, BurnedFraction: 5,
		},
	}
}

func TestSLOValidateAccepts(t *testing.T) {
	if err := validSLO().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSLOValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SLOReport)
		want   string
	}{
		{"wrong schema", func(r *SLOReport) { r.Schema = "bogus/v9" }, "schema"},
		{"zero requests", func(r *SLOReport) { r.Requests = 0 }, "request count"},
		{"classes do not sum", func(r *SLOReport) { r.StatusClasses["2xx"] = 99 }, "sum"},
		{"unknown class", func(r *SLOReport) { r.StatusClasses["3xx"] = 0 }, "unknown status class"},
		{"negative class", func(r *SLOReport) {
			r.StatusClasses["5xx"] = -1
			r.StatusClasses["2xx"] += 2
		}, "negative count"},
		{"NaN quantile", func(r *SLOReport) {
			r.Variants["FF"] = SLOVariant{Requests: 1, P50MS: math.NaN()}
		}, "bad quantile"},
		{"quantiles out of order", func(r *SLOReport) {
			r.Variants["FF"] = SLOVariant{Requests: 1, P50MS: 5, P99MS: 2, P999MS: 9}
		}, "out of order"},
		{"hit ratio out of range", func(r *SLOReport) { r.CacheHitRatio = 1.5 }, "hit ratio"},
		{"bad availability", func(r *SLOReport) { r.ErrorBudget.Availability = 1 }, "availability"},
		{"negative rps", func(r *SLOReport) { r.TargetRPS = -1 }, "RPS"},
		{"negative rejected bytes", func(r *SLOReport) { r.RejectedBytes = -5 }, "rejected bytes"},
		{"slowest unknown class", func(r *SLOReport) {
			r.Slowest["3xx"] = []SLOSlowest{{MS: 1}}
		}, "unknown status class"},
		{"slowest over cap", func(r *SLOReport) {
			r.Slowest["2xx"] = make([]SLOSlowest, MaxSlowestPerClass+1)
		}, "cap"},
		{"slowest bad latency", func(r *SLOReport) {
			r.Slowest["429"] = []SLOSlowest{{MS: math.Inf(1)}}
		}, "bad latency"},
		{"slowest out of order", func(r *SLOReport) {
			r.Slowest["2xx"] = []SLOSlowest{{MS: 1}, {MS: 2}}
		}, "ordered slowest-first"},
	}
	for _, tc := range cases {
		r := validSLO()
		tc.mutate(r)
		err := r.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSLOReportJSONRoundTrip(t *testing.T) {
	r := validSLO()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back SLOReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if back.Variants["N1-N2"].P99MS != 4.5 || back.Seed != 42 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

// TestCommittedSLOArtifactsValidate: adding a status class must not
// invalidate the bgpc-slo/v1 artifacts already committed at the repo
// root.
func TestCommittedSLOArtifactsValidate(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_pr*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_pr*.json artifacts found")
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var r SLOReport
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}
