package wal

import (
	"math/rand"
	"runtime"
	"testing"

	"bgpc/internal/testutil"
)

// The allocation ceilings of the write path. Counts and bytes are the
// ones measured on go1.24, linux/amd64; the race detector allocates on
// its own, so the ceilings are skipped under -race.

// bytesPerRun is the heap bytes fn allocates, averaged over runs calls.
func bytesPerRun(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWALSnapshotAllocCeiling: one compaction of BenchmarkSnapshot's
// state (2,000 carried full records, 128 four-delta chains to replay
// and re-encode) allocates at most 4 MB. It measured 9.9 MB when every
// delta replayed its chain from the root and every re-encoded record
// took a fresh edge list, payload and frame; 2.3 MB with one replay
// per chain and one reused encode buffer.
func TestWALSnapshotAllocCeiling(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tmpl, want := snapshotState(t)
	l, _ := mustOpen(t, Options{Dir: copyDir(t, tmpl), Sync: SyncNever, SnapshotEvery: -1})
	got := bytesPerRun(1, func() {
		if err := l.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	})
	if n := l.FingerprintCount(); n != want {
		t.Fatalf("snapshot kept %d fingerprints, want %d", n, want)
	}
	const ceiling = 4 << 20
	if got > ceiling {
		t.Errorf("one compaction allocates %d bytes, ceiling %d", got, ceiling)
	}
}

// TestWALAppendFullAllocs: AppendFull of a 200-edge graph encodes the
// graph's CSR straight into the Log's reused buffer, so it allocates
// neither the 1.6 KB edge list nor a payload and a frame (2.5 KB
// each). What is left is the two index refs of the fingerprint's entry.
func TestWALAppendFullAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever, SnapshotEvery: -1})
	g := testGraph(t, rand.New(rand.NewSource(7)), 40, 50, 200)
	colors := colorBGPC(t, g)
	appendFull := func() {
		if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colors); err != nil {
			t.Fatalf("AppendFull: %v", err)
		}
	}
	appendFull() // the index entry and the encode buffer exist from here on
	if got := testing.AllocsPerRun(200, appendFull); got > 2 {
		t.Errorf("AppendFull allocates %v times, want 2", got)
	}
	if got := bytesPerRun(200, appendFull); got > 256 {
		t.Errorf("AppendFull allocates %d bytes, ceiling 256", got)
	}
}

// TestWALAppendDropsLargeBuffer: the encode buffer a whale graph's
// append grew is not kept by the Log, and a small append after it
// starts a small one.
func TestWALAppendDropsLargeBuffer(t *testing.T) {
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever, SnapshotEvery: -1})
	r := rand.New(rand.NewSource(5))
	whale := testGraph(t, r, 1000, 1000, 200_000)
	if n := 8 * whale.NumEdges(); n <= maxKeptBuf {
		t.Fatalf("whale's edges take %d bytes, want more than %d", n, maxKeptBuf)
	}
	if err := l.AppendFull(whale.Fingerprint(), "bgpc", whale, colorBGPC(t, whale)); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	if c := cap(l.buf); c > maxKeptBuf {
		t.Fatalf("Log kept a %d-byte encode buffer after the whale's append", c)
	}
	small := testGraph(t, r, 10, 10, 20)
	if err := l.AppendFull(small.Fingerprint(), "bgpc", small, colorBGPC(t, small)); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	if c := cap(l.buf); c == 0 || c > 4<<10 {
		t.Fatalf("encode buffer after a small append has capacity %d", c)
	}
}
