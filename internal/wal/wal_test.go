package wal

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
	"bgpc/internal/verify"
)

// testGraph draws a seeded random bipartite graph.
func testGraph(t testing.TB, r *rand.Rand, numNet, numVtx, m int) *bipartite.Graph {
	t.Helper()
	edges := make([]bipartite.Edge, m)
	for i := range edges {
		edges[i] = bipartite.Edge{Net: int32(r.Intn(numNet)), Vtx: int32(r.Intn(numVtx))}
	}
	g, err := bipartite.FromEdges(numNet, numVtx, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// colorBGPC produces a valid partial coloring of g (sequential greedy).
func colorBGPC(t testing.TB, g *bipartite.Graph) []int32 {
	t.Helper()
	colors := make([]int32, g.NumVertices())
	for i := range colors {
		colors[i] = core.Uncolored
	}
	core.FinishSequential(g, colors)
	if err := verify.BGPC(g, colors); err != nil {
		t.Fatalf("greedy coloring invalid: %v", err)
	}
	return colors
}

func mustOpen(t *testing.T, opts Options) (*Log, Stats) {
	t.Helper()
	l, stats, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, stats
}

// TestAppendRecoverRoundTrip is the core durability contract: a full
// coloring and a delta chain appended before a clean close are
// rehydratable byte-for-byte after reopening, and every rehydrated
// coloring still verifies against its rebuilt graph.
func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(1))
	g := testGraph(t, r, 40, 60, 300)
	colors := colorBGPC(t, g)
	fp := g.Fingerprint()

	ins := []bipartite.Edge{{Net: 1, Vtx: 2}, {Net: 3, Vtx: 4}}
	g2, _, _, err := g.ApplyDelta(ins, nil)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	colors2 := colorBGPC(t, g2)
	fp2 := g2.Fingerprint()

	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	if err := l.AppendFull(fp, "bgpc", g, colors); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	if err := l.AppendDelta(fp, fp2, "bgpc", ins, nil, colors2); err != nil {
		t.Fatalf("AppendDelta: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, stats := mustOpen(t, Options{Dir: dir})
	if stats.Records != 2 || stats.Fingerprints != 2 {
		t.Fatalf("recovery stats = %+v, want 2 records / 2 fingerprints", stats)
	}
	if stats.TruncatedBytes != 0 || stats.QuarantinedSegments != 0 {
		t.Fatalf("clean log reported damage: %+v", stats)
	}
	for _, tc := range []struct {
		fp   uint64
		want *bipartite.Graph
		cols []int32
	}{{fp, g, colors}, {fp2, g2, colors2}} {
		rg, rc, err := l2.Rehydrate(tc.fp, "bgpc")
		if err != nil {
			t.Fatalf("Rehydrate(%016x): %v", tc.fp, err)
		}
		if rg.Fingerprint() != tc.fp {
			t.Fatalf("rehydrated fingerprint %016x != %016x", rg.Fingerprint(), tc.fp)
		}
		if len(rc) != len(tc.cols) {
			t.Fatalf("rehydrated %d colors, want %d", len(rc), len(tc.cols))
		}
		for i := range rc {
			if rc[i] != tc.cols[i] {
				t.Fatalf("color[%d] = %d, want %d", i, rc[i], tc.cols[i])
			}
		}
		if err := verify.BGPC(rg, rc); err != nil {
			t.Fatalf("rehydrated coloring does not verify: %v", err)
		}
	}
	if !l2.Known(fp) || !l2.HasColoring(fp2, "bgpc") {
		t.Fatal("index lost fingerprints across recovery")
	}
	if l2.HasColoring(fp, "d2") {
		t.Fatal("HasColoring invented a d2 coloring")
	}
}

// TestChainRehydrate walks a multi-hop delta chain (full → delta →
// delta → delta) back to the full record and forward again.
func TestChainRehydrate(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(2))
	g := testGraph(t, r, 30, 50, 200)
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncNever})
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	cur := g
	var lastFP uint64
	var lastColors []int32
	for hop := 0; hop < 5; hop++ {
		ins := []bipartite.Edge{{Net: int32(hop), Vtx: int32(10 + hop)}}
		next, _, _, err := cur.ApplyDelta(ins, nil)
		if err != nil {
			t.Fatalf("ApplyDelta hop %d: %v", hop, err)
		}
		cols := colorBGPC(t, next)
		if err := l.AppendDelta(cur.Fingerprint(), next.Fingerprint(), "bgpc", ins, nil, cols); err != nil {
			t.Fatalf("AppendDelta hop %d: %v", hop, err)
		}
		cur, lastFP, lastColors = next, next.Fingerprint(), cols
	}
	l.Close()

	l2, stats := mustOpen(t, Options{Dir: dir})
	if stats.Records != 6 {
		t.Fatalf("recovered %d records, want 6", stats.Records)
	}
	rg, rc, err := l2.Rehydrate(lastFP, "bgpc")
	if err != nil {
		t.Fatalf("Rehydrate chain tip: %v", err)
	}
	if rg.Fingerprint() != lastFP {
		t.Fatalf("chain tip fingerprint mismatch")
	}
	for i := range rc {
		if rc[i] != lastColors[i] {
			t.Fatalf("chain tip color[%d] mismatch", i)
		}
	}
}

// TestRehydrateUnknown pins the miss contract: a fingerprint the log
// never saw is ErrUnknown (a true miss the caller may unlearn), and so
// is a known fingerprint queried for a mode it has no coloring of.
func TestRehydrateUnknown(t *testing.T) {
	l, _ := mustOpen(t, Options{Dir: t.TempDir()})
	if _, _, err := l.Rehydrate(0xdead, "bgpc"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown fp error = %v, want ErrUnknown", err)
	}
	r := rand.New(rand.NewSource(3))
	g := testGraph(t, r, 10, 10, 30)
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	if _, _, err := l.Rehydrate(g.Fingerprint(), "d2"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("missing-mode error = %v, want ErrUnknown", err)
	}
	if _, _, err := l.Rehydrate(g.Fingerprint(), "nope"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestRotationAndSnapshot forces segment rotation with a tiny segment
// cap and then compaction, checking retention actually deletes the
// superseded segments while every fingerprint stays rehydratable.
func TestRotationAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(4))
	const n = 12
	graphs := make([]*bipartite.Graph, n)
	colors := make([][]int32, n)
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncNever, SegmentBytes: 2 << 10, SnapshotEvery: -1})
	for i := range graphs {
		graphs[i] = testGraph(t, r, 20, 30, 120)
		colors[i] = colorBGPC(t, graphs[i])
		if err := l.AppendFull(graphs[i].Fingerprint(), "bgpc", graphs[i], colors[i]); err != nil {
			t.Fatalf("AppendFull %d: %v", i, err)
		}
	}
	if got := l.SegmentCount(); got < 3 {
		t.Fatalf("expected rotation to produce ≥3 segments, got %d", got)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// After compaction: the snapshot segment plus the fresh active.
	if got := l.SegmentCount(); got != 2 {
		t.Fatalf("post-snapshot segments = %d, want 2", got)
	}
	for i, g := range graphs {
		rg, rc, err := l.Rehydrate(g.Fingerprint(), "bgpc")
		if err != nil {
			t.Fatalf("post-snapshot Rehydrate %d: %v", i, err)
		}
		if rg.Fingerprint() != g.Fingerprint() || len(rc) != len(colors[i]) {
			t.Fatalf("post-snapshot state mismatch for graph %d", i)
		}
	}
	l.Close()

	// And the compacted log recovers.
	l2, stats := mustOpen(t, Options{Dir: dir})
	if stats.Fingerprints != n {
		t.Fatalf("recovered %d fingerprints, want %d", stats.Fingerprints, n)
	}
	for i, g := range graphs {
		if _, _, err := l2.Rehydrate(g.Fingerprint(), "bgpc"); err != nil {
			t.Fatalf("post-recovery Rehydrate %d: %v", i, err)
		}
	}
}

// TestAutoSnapshot checks the SnapshotEvery policy fires on its own:
// every threshold crossing is one compaction, none lost to one still in
// flight. Compactions run in the background, so Close — which finishes
// the queued ones — comes before the count.
func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(5))
	before := obs.WalSnapshots.Load()
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncNever, SnapshotEvery: 4})
	for i := 0; i < 9; i++ {
		g := testGraph(t, r, 10, 15, 40)
		if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
			t.Fatalf("AppendFull: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := obs.WalSnapshots.Load() - before; got != 2 {
		t.Fatalf("auto snapshots = %d, want 2", got)
	}
}

// TestDegradedFuse pins the disk-full story: one injected IO error
// flips the log into in-memory-only mode, every later append is
// refused with ErrDegraded without touching disk, and the fuse never
// resets.
func TestDegradedFuse(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	dir := t.TempDir()
	r := rand.New(rand.NewSource(6))
	g := testGraph(t, r, 10, 15, 40)
	cols := colorBGPC(t, g)
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, cols); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	if err := failpoint.ArmFromSpec(FPAppend + "=err@1"); err != nil {
		t.Fatalf("arm failpoint: %v", err)
	}
	g2 := testGraph(t, r, 10, 15, 40)
	if err := l.AppendFull(g2.Fingerprint(), "bgpc", g2, colorBGPC(t, g2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append under fault = %v, want ErrDegraded", err)
	}
	if !l.Degraded() {
		t.Fatal("fuse did not trip")
	}
	failpoint.Reset()
	// Fuse is one-way: healthy disk, still refused.
	if err := l.AppendFull(g2.Fingerprint(), "bgpc", g2, colorBGPC(t, g2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after fault = %v, want ErrDegraded", err)
	}
	// State accepted before the fault survives a restart.
	l.Close()
	l2, stats := mustOpen(t, Options{Dir: dir})
	if stats.Records != 1 {
		t.Fatalf("recovered %d records, want 1", stats.Records)
	}
	if _, _, err := l2.Rehydrate(g.Fingerprint(), "bgpc"); err != nil {
		t.Fatalf("pre-fault record lost: %v", err)
	}
}

// TestSyncFailureTripsFuse: a failing fsync is a durability loss like a
// failed write, and must trip the same fuse.
func TestSyncFailureTripsFuse(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	r := rand.New(rand.NewSource(7))
	g := testGraph(t, r, 10, 15, 40)
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
	if err := failpoint.ArmFromSpec(FPSync + "=err@1"); err != nil {
		t.Fatalf("arm failpoint: %v", err)
	}
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append with failing sync = %v, want ErrDegraded", err)
	}
	if !l.Degraded() {
		t.Fatal("fuse did not trip on sync failure")
	}
}

// TestIntervalSync checks the background batcher actually issues
// fsyncs under the interval policy.
func TestIntervalSync(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := testGraph(t, r, 10, 15, 40)
	before := obs.WalSyncs.Load()
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncInterval, Interval: 5 * time.Millisecond})
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for obs.WalSyncs.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("interval sync never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	l.Close()
}

// TestRecentFingerprints pins the warm-start ordering: most recently
// appended (or rehydrated) first, bounded by n.
func TestRecentFingerprints(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever})
	var fps []uint64
	for i := 0; i < 4; i++ {
		g := testGraph(t, r, 10, 15, 40)
		if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
			t.Fatalf("AppendFull: %v", err)
		}
		fps = append(fps, g.Fingerprint())
	}
	got := l.RecentFingerprints(2)
	if len(got) != 2 || got[0] != fps[3] || got[1] != fps[2] {
		t.Fatalf("RecentFingerprints(2) = %x, want [%x %x]", got, fps[3], fps[2])
	}
	if n := len(l.RecentFingerprints(0)); n != 4 {
		t.Fatalf("RecentFingerprints(0) returned %d, want all 4", n)
	}
}

// TestReplayFailpoint drives the wal.replay chaos hook: an injected
// per-record fault during recovery reads as corruption and triggers
// tail truncation, not a failed boot.
func TestReplayFailpoint(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	dir := t.TempDir()
	r := rand.New(rand.NewSource(10))
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	var fps []uint64
	for i := 0; i < 3; i++ {
		g := testGraph(t, r, 10, 15, 40)
		if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
			t.Fatalf("AppendFull: %v", err)
		}
		fps = append(fps, g.Fingerprint())
	}
	l.Close()
	// Third record reads as corrupt → torn-tail truncation.
	if err := failpoint.ArmFromSpec(FPReplay + "=err@1#2"); err != nil {
		t.Fatalf("arm failpoint: %v", err)
	}
	l2, stats := mustOpen(t, Options{Dir: dir})
	failpoint.Reset()
	if stats.Records != 2 || stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want 2 records and a truncated tail", stats)
	}
	if l2.Known(fps[2]) {
		t.Fatal("truncated record still indexed")
	}
	if _, _, err := l2.Rehydrate(fps[0], "bgpc"); err != nil {
		t.Fatalf("surviving record lost: %v", err)
	}
}

// TestQuarantineNonFinalSegment corrupts a record in an *earlier*
// segment: recovery must rename that whole segment aside, keep the
// later segments, and start — never refuse boot.
func TestQuarantineNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(11))
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 2 << 10, SnapshotEvery: -1})
	var fps []uint64
	for i := 0; i < 10; i++ {
		g := testGraph(t, r, 20, 30, 120)
		if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
			t.Fatalf("AppendFull: %v", err)
		}
		fps = append(fps, g.Fingerprint())
	}
	seqs, names, err := l.listSegments()
	if err != nil || len(seqs) < 3 {
		t.Fatalf("need ≥3 segments, have %d (err %v)", len(seqs), err)
	}
	l.Close()

	// Flip one payload byte in the middle of the first segment.
	first := filepath.Join(dir, names[seqs[0]])
	buf, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(first, buf, 0o644); err != nil {
		t.Fatalf("write corruption: %v", err)
	}

	l2, stats := mustOpen(t, Options{Dir: dir})
	if stats.QuarantinedSegments != 1 {
		t.Fatalf("quarantined = %d, want 1", stats.QuarantinedSegments)
	}
	if _, err := os.Stat(first + ".corrupt"); err != nil {
		t.Fatalf("quarantined segment not renamed aside: %v", err)
	}
	// Everything outside the quarantined segment still rehydrates.
	recovered := 0
	for _, fp := range fps {
		if _, _, err := l2.Rehydrate(fp, "bgpc"); err == nil {
			recovered++
		}
	}
	if recovered == 0 || recovered == len(fps) {
		t.Fatalf("recovered %d/%d fingerprints, want a strict subset", recovered, len(fps))
	}
}

// TestClosedLog pins use-after-Close behaviour.
func TestClosedLog(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	g := testGraph(t, r, 10, 15, 40)
	l, _ := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if _, _, err := l.Rehydrate(g.Fingerprint(), "bgpc"); !errors.Is(err, ErrClosed) {
		t.Fatalf("rehydrate after close = %v, want ErrClosed", err)
	}
}

// TestOptionsValidation pins Option errors.
func TestOptionsValidation(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("empty Dir accepted")
	}
	if _, _, err := Open(Options{Dir: t.TempDir(), Sync: "sometimes"}); err == nil {
		t.Fatal("bad sync policy accepted")
	}
}
