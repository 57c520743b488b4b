package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpc/internal/obs"
)

func newTestFlight(t *testing.T, cfg FlightConfig) *Flight {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = -1 // tests trigger back to back
	}
	f, err := NewFlight(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlightBundleContents(t *testing.T) {
	f := newTestFlight(t, FlightConfig{Process: "bgpcd-test"})
	asm := &Assembled{TraceID: tid1, Fragments: []Fragment{
		FragmentFromTimeline(timelineFor(tid1, pid1, ""), "bgpcd"),
	}}
	tl := []obs.Timeline{timelineFor(tid1, pid1, "")}

	dir := f.Trigger("watchdog", "no progress on graph g1", asm, tl)
	if dir == "" {
		t.Fatal("trigger produced no bundle")
	}
	if !strings.Contains(filepath.Base(dir), "watchdog") {
		t.Fatalf("bundle name must carry the reason: %s", dir)
	}

	var meta bundleMeta
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "watchdog" || meta.Process != "bgpcd-test" || meta.TraceID != tid1 || meta.PID != os.Getpid() {
		t.Fatalf("meta wrong: %+v", meta)
	}

	for _, name := range []string{"goroutines.txt", "heap.pprof", "metrics.prom", "requests.json", "trace.json"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Fatalf("bundle %s is empty", name)
		}
	}

	// The goroutine dump must actually be a goroutine dump.
	gb, _ := os.ReadFile(filepath.Join(dir, "goroutines.txt"))
	if !strings.Contains(string(gb), "goroutine") {
		t.Fatal("goroutines.txt does not look like a goroutine dump")
	}

	// The metrics dump must be the /metrics exposition.
	mf, err := os.Open(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(mf)
	mf.Close()
	if err != nil {
		t.Fatalf("metrics.prom is not a Prometheus exposition: %v", err)
	}
	if fam := fams["bgpc_diag_bundles_total"]; fam == nil || fam.Type != "counter" {
		t.Fatalf("metrics.prom lacks the bgpc_diag_bundles_total counter: %+v", fam)
	}

	// The triggering trace must round-trip.
	var back Assembled
	tb, _ := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err := json.Unmarshal(tb, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != tid1 || len(back.Fragments) != 1 {
		t.Fatalf("trace.json lost the trace: %+v", back)
	}

	// No .partial residue after a successful write.
	ents, _ := os.ReadDir(f.Dir())
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".partial") {
			t.Fatalf("leftover partial %s", e.Name())
		}
	}
}

func TestFlightOmitsTraceWhenNone(t *testing.T) {
	f := newTestFlight(t, FlightConfig{Process: "p"})
	dir := f.Trigger("wal_fuse", "disk gone", nil, nil)
	if dir == "" {
		t.Fatal("trigger failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); !os.IsNotExist(err) {
		t.Fatal("trace.json must be absent when no trace triggered the bundle")
	}
}

func TestFlightRotation(t *testing.T) {
	f := newTestFlight(t, FlightConfig{Process: "p", MaxBundles: 2})
	var dirs []string
	for i := 0; i < 4; i++ {
		d := f.Trigger("slow_request", "", nil, nil)
		if d == "" {
			t.Fatalf("trigger %d suppressed", i)
		}
		dirs = append(dirs, d)
	}
	names, err := f.bundleNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("rotation kept %d bundles, want 2: %v", len(names), names)
	}
	for _, old := range dirs[:2] {
		if _, err := os.Stat(old); !os.IsNotExist(err) {
			t.Fatalf("oldest bundle %s must be rotated out", old)
		}
	}
	for _, fresh := range dirs[2:] {
		if _, err := os.Stat(fresh); err != nil {
			t.Fatalf("newest bundle %s must survive: %v", fresh, err)
		}
	}
}

func TestFlightCooldownSuppresses(t *testing.T) {
	now := time.Unix(1700000000, 0)
	f := newTestFlight(t, FlightConfig{Process: "p", Cooldown: time.Minute, now: func() time.Time { return now }})
	before := obs.DiagSuppressed.Load()
	if f.Trigger("watchdog", "", nil, nil) == "" {
		t.Fatal("first trigger must write")
	}
	if f.Trigger("watchdog", "", nil, nil) != "" {
		t.Fatal("trigger inside the cooldown must be suppressed")
	}
	if obs.DiagSuppressed.Load() != before+1 {
		t.Fatal("suppression must count bgpc.diag_suppressed")
	}
	now = now.Add(2 * time.Minute)
	if f.Trigger("watchdog", "", nil, nil) == "" {
		t.Fatal("trigger after the cooldown must write")
	}
}

func TestFlightSeqResumesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	f1 := newTestFlight(t, FlightConfig{Dir: dir, Process: "p"})
	first := f1.Trigger("breaker_open", "", nil, nil)
	if first == "" {
		t.Fatal("trigger failed")
	}
	f2 := newTestFlight(t, FlightConfig{Dir: dir, Process: "p"})
	second := f2.Trigger("breaker_open", "", nil, nil)
	if second == "" {
		t.Fatal("post-restart trigger failed")
	}
	if bundleSeq(filepath.Base(second)) <= bundleSeq(filepath.Base(first)) {
		t.Fatalf("restart must continue numbering: %s then %s", first, second)
	}
}

func TestSanitizeReason(t *testing.T) {
	cases := map[string]string{
		"watchdog":              "watchdog",
		"Breaker Open!":         "breaker_open_",
		"":                      "anomaly",
		strings.Repeat("x", 64): strings.Repeat("x", 32),
	}
	for in, want := range cases {
		if got := sanitizeReason(in); got != want {
			t.Errorf("sanitizeReason(%q)=%q want %q", in, got, want)
		}
	}
}
