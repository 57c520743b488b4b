package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bgpc/internal/bipartite"
)

// buildLog populates dir with n records — one full coloring starting
// each chain, then deltas, resetting the chain every 16 records so the
// shape matches serving traffic (mostly deltas, periodic fulls).
// Snapshots are disabled so the whole history stays on disk and Open
// replays exactly n records.
func buildLog(b *testing.B, dir string, n int) {
	b.Helper()
	l, _, err := Open(Options{Dir: dir, Sync: SyncNever, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	var g *bipartite.Graph
	for i := 0; i < n; i++ {
		if i%16 == 0 {
			g = testGraph(b, r, 40, 50, 200)
			if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(b, g)); err != nil {
				b.Fatal(err)
			}
			continue
		}
		ins := []bipartite.Edge{{Net: int32(r.Intn(40)), Vtx: int32(r.Intn(50))}}
		next, _, _, err := g.ApplyDelta(ins, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.AppendDelta(g.Fingerprint(), next.Fingerprint(), "bgpc", ins, nil, colorBGPC(b, next)); err != nil {
			b.Fatal(err)
		}
		g = next
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}

// dirBytes totals the on-disk size of every segment in dir.
func dirBytes(b *testing.B, dir string) int64 {
	b.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// BenchmarkOpenReplay measures cold-start recovery: scan, CRC-check,
// and index every record of an n-record log. records/sec is the replay
// throughput EXPERIMENTS.md reports.
func BenchmarkOpenReplay(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			buildLog(b, dir, n)
			size := dirBytes(b, dir)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, stats, err := Open(Options{Dir: dir, SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Records != n {
					b.Fatalf("replayed %d records, want %d", stats.Records, n)
				}
				l.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(size), "log-bytes")
		})
	}
}

// BenchmarkAppend measures the per-append cost of each fsync policy —
// the durability tax the serving path pays on every accepted coloring.
func BenchmarkAppend(b *testing.B) {
	for _, policy := range []string{SyncAlways, SyncInterval, SyncNever} {
		b.Run("sync="+policy, func(b *testing.B) {
			l, _, err := Open(Options{Dir: b.TempDir(), Sync: policy, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			r := rand.New(rand.NewSource(7))
			g := testGraph(b, r, 40, 50, 200)
			colors := colorBGPC(b, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Distinct fingerprints defeat the service-layer dedup
				// this benchmark is not about.
				if err := l.AppendFull(uint64(i), "bgpc", g, colors); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// copyDir copies every regular file of src into a fresh directory.
func copyDir(tb testing.TB, src string) string {
	tb.Helper()
	dst := tb.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}

// snapshotState writes, into a fresh directory, a log holding 2,000
// fingerprints an earlier snapshot already wrote as full records, plus
// 512 fresh delta records (128 chains of 4, each rooted at a
// snapshotted fingerprint) — the state a serving log is in when its
// every-512-appends threshold fires. It returns the directory and the
// fingerprint count a compaction of it must keep.
func snapshotState(tb testing.TB) (string, int64) {
	const snapshotted, chains, hops = 2000, 128, 4
	dir := tb.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncNever, SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	roots := make([]*bipartite.Graph, snapshotted)
	for i := range roots {
		roots[i] = testGraph(tb, r, 40, 50, 200)
		if err := l.AppendFull(roots[i].Fingerprint(), "bgpc", roots[i], colorBGPC(tb, roots[i])); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Snapshot(); err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < chains; c++ {
		g := roots[r.Intn(len(roots))]
		for h := 0; h < hops; h++ {
			// Removing a present edge makes every hop a real change.
			ins := []bipartite.Edge{{Net: int32(r.Intn(40)), Vtx: int32(r.Intn(50))}}
			rem := g.Edges()[:1]
			next, _, _, err := g.ApplyDelta(ins, rem)
			if err != nil {
				tb.Fatal(err)
			}
			if err := l.AppendDelta(g.Fingerprint(), next.Fingerprint(), "bgpc", ins, rem, colorBGPC(tb, next)); err != nil {
				tb.Fatal(err)
			}
			g = next
		}
	}
	want := l.FingerprintCount()
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir, want
}

// BenchmarkSnapshot measures one compaction of snapshotState's log.
// Each iteration compacts its own copy of that log; only the Snapshot
// call is timed.
func BenchmarkSnapshot(b *testing.B) {
	tmpl, want := snapshotState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, _, err := Open(Options{Dir: copyDir(b, tmpl), Sync: SyncNever, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := l.Snapshot(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := l.FingerprintCount(); got != want {
			b.Fatalf("snapshot kept %d fingerprints, want %d", got, want)
		}
		l.Close()
		b.StartTimer()
	}
}

// BenchmarkSnapshotChainHeap measures the peak heap of one compaction
// of a log holding one 64-delta chain over a 100,000-edge graph, the
// shape one client's deltas between two snapshots leave. peak-heap-MB
// is the most HeapInuse rose above its value before the Snapshot call,
// sampled every 100 µs while the call runs; the largest over b.N
// compactions is reported.
func BenchmarkSnapshotChainHeap(b *testing.B) {
	const hops = 64
	tmpl := b.TempDir()
	l, _, err := Open(Options{Dir: tmpl, Sync: SyncNever, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(64))
	g := testGraph(b, r, 2000, 2000, 100_000)
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(b, g)); err != nil {
		b.Fatal(err)
	}
	for h := 0; h < hops; h++ {
		ins := []bipartite.Edge{{Net: int32(r.Intn(2000)), Vtx: int32(r.Intn(2000))}}
		rem := g.Edges()[:1]
		next, _, _, err := g.ApplyDelta(ins, rem)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.AppendDelta(g.Fingerprint(), next.Fingerprint(), "bgpc", ins, rem, colorBGPC(b, next)); err != nil {
			b.Fatal(err)
		}
		g = next
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	g = nil

	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, _, err := Open(Options{Dir: copyDir(b, tmpl), Sync: SyncNever, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.HeapInuse
		done := make(chan struct{})
		sampled := make(chan uint64)
		go func() {
			var top uint64
			tick := time.NewTicker(100 * time.Microsecond)
			defer tick.Stop()
			for {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				top = max(top, ms.HeapInuse)
				select {
				case <-done:
					sampled <- top
					return
				case <-tick.C:
				}
			}
		}()
		b.StartTimer()
		err = l.Snapshot()
		b.StopTimer()
		close(done)
		top := <-sampled
		if err != nil {
			b.Fatal(err)
		}
		if top > base {
			peak = max(peak, top-base)
		}
		l.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
}
