package service

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpc/internal/delta"
	"bgpc/internal/failpoint"
	"bgpc/internal/mtx"
	"bgpc/internal/obs"
	"bgpc/internal/verify"
	"bgpc/internal/wal"
)

// openTestWAL opens a log in dir with per-append fsync (the strict
// policy the crash battery runs under).
func openTestWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestWALDeltaSurvivesRestart is the durability contract through the
// HTTP surface: color + delta on one server incarnation, tear it down,
// boot a second server on a recovered log — the chain tip fingerprint
// still serves deltas (no 404, no full-recolor fallback) and the
// result verifies against a locally maintained mirror graph.
func TestWALDeltaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l1 := openTestWAL(t, dir)
	s1 := newTestServer(t, Config{Workers: 2, WAL: l1})

	base := colorFirst(t, s1, ColorRequest{Matrix: tinyMtx})
	ins := delta.EdgeList{{Net: 0, Vtx: 3}}
	resp := decodeDeltaResp(t, postDelta(t, s1, base.Fingerprint, DeltaRequest{Insert: ins}))
	if err := l1.Close(); err != nil {
		t.Fatalf("closing wal: %v", err)
	}

	// Second incarnation, fresh cache, same data dir.
	l2 := openTestWAL(t, dir)
	s2 := newTestServer(t, Config{Workers: 2, WAL: l2})
	if s2.WarmedColorings() < 2 {
		t.Fatalf("warm-up re-verified %d colorings, want ≥ 2 (base + delta tip)", s2.WarmedColorings())
	}

	ins2 := delta.EdgeList{{Net: 1, Vtx: 0}}
	w := postDelta(t, s2, resp.Fingerprint, DeltaRequest{Insert: ins2})
	if w.Code != http.StatusOK {
		t.Fatalf("delta off recovered fingerprint: status %d: %s", w.Code, w.Body)
	}
	resp2 := decodeDeltaResp(t, w)
	if resp2.BaseFingerprint != resp.Fingerprint {
		t.Fatalf("recovered chain base %s, want %s", resp2.BaseFingerprint, resp.Fingerprint)
	}

	// The recovered chain must agree with a locally maintained mirror.
	tiny, err := mtx.Read(strings.NewReader(tinyMtx))
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _, err := tiny.ApplyDelta(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	g3, _, _, err := g2.ApplyDelta(ins2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g3, resp2.Colors); err != nil {
		t.Fatalf("recovered-chain coloring invalid: %v", err)
	}
}

// TestWALRehydrateOnEviction: a fingerprint evicted by cache pressure
// (not a restart) rehydrates from the log on the next delta instead of
// 404ing, and the rehydration is counted.
func TestWALRehydrateOnEviction(t *testing.T) {
	l := openTestWAL(t, t.TempDir())
	s := newTestServer(t, Config{Workers: 2, CacheEntries: 1, WAL: l})

	base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	// Evict tinyMtx's entry from the 1-entry cache.
	colorFirst(t, s, ColorRequest{Matrix: symMtx})

	before := obs.SvcWalRehydrated.Load()
	w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 3}}})
	if w.Code != http.StatusOK {
		t.Fatalf("delta after eviction: status %d: %s", w.Code, w.Body)
	}
	if obs.SvcWalRehydrated.Load() != before+1 {
		t.Fatalf("svc_wal_rehydrated did not count the rehydration")
	}
}

// TestWALDiskFullDegrades pins the disk-full story end to end: an IO
// fault on append trips the one-way fuse; the request that hit it (and
// every later one) still succeeds from memory — never a 5xx — while
// the durability header flips to "none" and svc_wal_degraded reads 1.
func TestWALDiskFullDegrades(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	l := openTestWAL(t, t.TempDir())
	s := newTestServer(t, Config{Workers: 2, WAL: l})

	w := post(t, s, ColorRequest{Matrix: tinyMtx})
	if w.Code != http.StatusOK {
		t.Fatalf("pre-fault color: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-BGPC-Durability"); got != "wal" {
		t.Fatalf("healthy durability header = %q, want \"wal\"", got)
	}

	if err := failpoint.ArmFromSpec(wal.FPAppend + "=err@1"); err != nil {
		t.Fatalf("arm failpoint: %v", err)
	}
	// A different matrix so the append is not deduped away.
	w = post(t, s, ColorRequest{Matrix: symMtx, Mode: "d2"})
	if w.Code != http.StatusOK {
		t.Fatalf("color during disk-full: status %d: %s (must degrade, not fail)", w.Code, w.Body)
	}
	failpoint.Reset()

	if !l.Degraded() {
		t.Fatal("fuse did not trip")
	}
	if got := obs.GaugeSnapshot()["bgpc.svc_wal_degraded"]; got != 1 {
		t.Fatalf("svc_wal_degraded = %d, want 1", got)
	}
	// Every later response advertises the loss and still serves.
	w = post(t, s, ColorRequest{Matrix: tinyMtx})
	if w.Code != http.StatusOK {
		t.Fatalf("post-fault color: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-BGPC-Durability"); got != "none" {
		t.Fatalf("degraded durability header = %q, want \"none\"", got)
	}
}

// TestWALDegradeReportedPerServer: the degrade report is once per
// Server, not once per process — in a process hosting two WAL-backed
// Servers (an in-process fleet), each fuse trip is logged.
func TestWALDegradeReportedPerServer(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	var logs [2]*syncBuffer
	var servers [2]*Server
	for i := range servers {
		logs[i] = &syncBuffer{}
		servers[i] = newTestServer(t, Config{
			Workers: 2,
			WAL:     openTestWAL(t, t.TempDir()),
			Log:     slog.New(slog.NewTextHandler(logs[i], nil)),
		})
	}
	if err := failpoint.ArmFromSpec(wal.FPAppend + "=err"); err != nil {
		t.Fatalf("arm failpoint: %v", err)
	}
	for i, s := range servers {
		if w := post(t, s, ColorRequest{Matrix: tinyMtx}); w.Code != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, w.Code, w.Body)
		}
		if !strings.Contains(logs[i].String(), "WAL degraded to in-memory-only mode") {
			t.Fatalf("server %d did not log its WAL degrade; log:\n%s", i, logs[i])
		}
	}
}

// TestWALRecoverable404 pins the recoverable hint: when the log's
// index acknowledges a fingerprint but rehydration fails (segment
// vanished under it — transient IO territory), the 404 carries
// recoverable=true so clients do not unlearn durable state. A
// fingerprint the log never saw stays a plain 404.
func TestWALRecoverable404(t *testing.T) {
	dir := t.TempDir()
	l := openTestWAL(t, dir)
	s := newTestServer(t, Config{Workers: 2, CacheEntries: 1, WAL: l})

	base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	colorFirst(t, s, ColorRequest{Matrix: symMtx}) // evict tinyMtx

	// Pull the segments out from under the index: rehydration now hits
	// IO errors on state the log previously acknowledged.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to remove (err %v)", err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatalf("removing %s: %v", seg, err)
		}
	}

	w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 3}}})
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (body %s)", w.Code, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if !er.Recoverable {
		t.Fatalf("acknowledged-but-unavailable fingerprint not marked recoverable: %s", w.Body)
	}

	// Unknown fingerprint: definitive miss, not recoverable.
	w = postDelta(t, s, "00000000deadbeef", DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 1}}})
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown fp status %d, want 404", w.Code)
	}
	er = ErrorResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Recoverable {
		t.Fatal("unknown fingerprint marked recoverable")
	}
}

// TestWALNilConfig: no log configured means the old behaviour exactly,
// plus an honest durability header.
func TestWALNilConfig(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := post(t, s, ColorRequest{Matrix: tinyMtx})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-BGPC-Durability"); got != "none" {
		t.Fatalf("durability header = %q, want \"none\"", got)
	}
	if got := obs.GaugeSnapshot()["bgpc.svc_wal_degraded"]; got != 1 {
		t.Fatalf("svc_wal_degraded = %d, want 1 with no WAL", got)
	}
}

// TestWALAppendDedup: re-coloring the same cached graph in the same
// mode must not grow the log.
func TestWALAppendDedup(t *testing.T) {
	l := openTestWAL(t, t.TempDir())
	s := newTestServer(t, Config{Workers: 2, WAL: l})
	colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	appends := obs.WalAppends.Load()
	colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	if got := obs.WalAppends.Load(); got != appends {
		t.Fatalf("repeat colorings grew the log: %d appends, want %d", got, appends)
	}
}
