package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestWritePrometheusGoldenFamily resets all metric state, makes a
// deterministic set of observations, and pins the exact exposition
// bytes of two histogram families (queue wait and WAL snapshot time)
// and two counter families (admissions and router delta miss hops). A
// diff here is a wire-format change every scraper sees.
func TestWritePrometheusGoldenFamily(t *testing.T) {
	ResetMetrics()
	ResetHistograms()
	t.Cleanup(func() { ResetMetrics(); ResetHistograms() })

	SvcAccepted.Inc()
	SvcAccepted.Inc()
	RtrDeltaMissHops.Add(3)
	for _, v := range []float64{0.0004, 0.001, 0.3, 45} {
		SvcQueueWait.Observe(v)
	}
	for _, v := range []float64{0.02, 0.14} {
		WalSnapshotSeconds.Observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	wantCounter := strings.Join([]string{
		"# HELP bgpc_svc_accepted_total Jobs admitted into the worker-pool queue.",
		"# TYPE bgpc_svc_accepted_total counter",
		"bgpc_svc_accepted_total 2",
		"",
	}, "\n")
	if !strings.Contains(out, wantCounter) {
		t.Fatalf("exposition missing counter block:\nwant:\n%s\ngot:\n%s", wantCounter, out)
	}
	wantMiss := strings.Join([]string{
		"# HELP bgpc_rtr_delta_miss_hops_total Delta hops answered 404 by a backend without the base, walked past.",
		"# TYPE bgpc_rtr_delta_miss_hops_total counter",
		"bgpc_rtr_delta_miss_hops_total 3",
		"",
	}, "\n")
	if !strings.Contains(out, wantMiss) {
		t.Fatalf("exposition missing delta miss counter block:\nwant:\n%s\ngot:\n%s", wantMiss, out)
	}

	wantHist := strings.Join([]string{
		"# HELP bgpc_svc_queue_wait_seconds Time jobs spent admitted but not yet running.",
		"# TYPE bgpc_svc_queue_wait_seconds histogram",
		`bgpc_svc_queue_wait_seconds_bucket{le="0.0005"} 1`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.001"} 2`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.0025"} 2`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.005"} 2`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.01"} 2`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.025"} 2`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.05"} 2`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.1"} 2`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.25"} 2`,
		`bgpc_svc_queue_wait_seconds_bucket{le="0.5"} 3`,
		`bgpc_svc_queue_wait_seconds_bucket{le="1"} 3`,
		`bgpc_svc_queue_wait_seconds_bucket{le="2.5"} 3`,
		`bgpc_svc_queue_wait_seconds_bucket{le="5"} 3`,
		`bgpc_svc_queue_wait_seconds_bucket{le="10"} 3`,
		`bgpc_svc_queue_wait_seconds_bucket{le="30"} 3`,
		`bgpc_svc_queue_wait_seconds_bucket{le="+Inf"} 4`,
		"bgpc_svc_queue_wait_seconds_sum 45.3014",
		"bgpc_svc_queue_wait_seconds_count 4",
		"",
	}, "\n")
	if !strings.Contains(out, wantHist) {
		t.Fatalf("exposition missing histogram block:\nwant:\n%s\ngot:\n%s", wantHist, out)
	}

	wantSnap := strings.Join([]string{
		"# HELP bgpc_wal_snapshot_seconds Write-ahead-log snapshot compaction time, seal to install.",
		"# TYPE bgpc_wal_snapshot_seconds histogram",
		`bgpc_wal_snapshot_seconds_bucket{le="0.0005"} 0`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.001"} 0`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.0025"} 0`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.005"} 0`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.01"} 0`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.025"} 1`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.05"} 1`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.1"} 1`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.25"} 2`,
		`bgpc_wal_snapshot_seconds_bucket{le="0.5"} 2`,
		`bgpc_wal_snapshot_seconds_bucket{le="1"} 2`,
		`bgpc_wal_snapshot_seconds_bucket{le="2.5"} 2`,
		`bgpc_wal_snapshot_seconds_bucket{le="5"} 2`,
		`bgpc_wal_snapshot_seconds_bucket{le="10"} 2`,
		`bgpc_wal_snapshot_seconds_bucket{le="30"} 2`,
		`bgpc_wal_snapshot_seconds_bucket{le="+Inf"} 2`,
		"bgpc_wal_snapshot_seconds_sum 0.16",
		"bgpc_wal_snapshot_seconds_count 2",
		"",
	}, "\n")
	if !strings.Contains(out, wantSnap) {
		t.Fatalf("exposition missing snapshot histogram block:\nwant:\n%s\ngot:\n%s", wantSnap, out)
	}
}

// TestWritePrometheusParsesCleanly runs the full exposition — counters,
// gauges, labeled and unlabeled histograms — through the package's own
// strict parser, which enforces the v0.0.4 rules a real scraper
// depends on.
func TestWritePrometheusParsesCleanly(t *testing.T) {
	ResetMetrics()
	ResetHistograms()
	t.Cleanup(func() { ResetMetrics(); ResetHistograms() })

	RegisterGauge("bgpc.test_queue_depth", "Test gauge.", func() int64 { return 7 })
	SvcLatency.With("V-V").Observe(0.004)
	SvcLatency.With("d2/N1-N2").Observe(0.2)
	SvcJobBytes.Observe(1 << 20)
	SvcCompleted.Inc()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}

	g := fams["bgpc_test_queue_depth"]
	if g == nil || g.Type != "gauge" || len(g.Samples) != 1 || g.Samples[0].Value != 7 {
		t.Fatalf("gauge family wrong: %+v", g)
	}
	c := fams["bgpc_svc_completed_total"]
	if c == nil || c.Type != "counter" || c.Samples[0].Value != 1 {
		t.Fatalf("counter family wrong: %+v", c)
	}
	lat := fams["bgpc_svc_latency_seconds"]
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("latency family wrong: %+v", lat)
	}
	variants := map[string]bool{}
	for _, s := range lat.Samples {
		if v := s.Label("variant"); v != "" {
			variants[v] = true
		}
	}
	if !variants["V-V"] || !variants["d2/N1-N2"] {
		t.Fatalf("latency variants = %v, want V-V and d2/N1-N2", variants)
	}

	// p50/p99 must be derivable from the scrape: reconstruct a snapshot
	// from the parsed buckets and interpolate.
	var bounds []float64
	var counts []int64
	for _, s := range fams["bgpc_svc_job_bytes"].Samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		le := s.Label("le")
		if le == "+Inf" {
			counts = append(counts, int64(s.Value))
			continue
		}
		var b float64
		if _, err := fmtSscan(le, &b); err != nil {
			t.Fatalf("bad le %q: %v", le, err)
		}
		bounds = append(bounds, b)
		counts = append(counts, int64(s.Value))
	}
	snap := HistSnapshot{Bounds: bounds, Buckets: counts, Count: counts[len(counts)-1]}
	p50 := snap.Quantile(0.5)
	if math.IsNaN(p50) || p50 < 256<<10 || p50 > 1<<20 {
		t.Fatalf("p50 from scrape = %v, want within (256KiB, 1MiB]", p50)
	}
}

// fmtSscan is a tiny strconv shim so the test reads like the scrape
// math it verifies.
func fmtSscan(s string, out *float64) (int, error) {
	v, err := parseValue(s)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}

func TestRegisterGaugeReplaces(t *testing.T) {
	RegisterGauge("bgpc.test_replace", "v1", func() int64 { return 1 })
	RegisterGauge("bgpc.test_replace", "v2", func() int64 { return 2 })
	if got := GaugeSnapshot()["bgpc.test_replace"]; got != 2 {
		t.Fatalf("gauge = %d, want last registration to win", got)
	}
}

// TestCounterHelpDocumented: every counter family carries written HELP
// prose, not an empty line or a placeholder generated from its name.
func TestCounterHelpDocumented(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "# HELP ")
		if !ok {
			continue
		}
		name, help, _ := strings.Cut(rest, " ")
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		families++
		if strings.TrimSpace(help) == "" || strings.HasPrefix(help, "Counter ") {
			t.Errorf("%s: HELP %q is not documentation", name, help)
		}
	}
	if families != len(counters) {
		t.Fatalf("exposition has %d counter families, want %d", families, len(counters))
	}
}
