package par

import (
	"slices"
	"sync/atomic"
	"testing"

	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
	"bgpc/internal/testutil"
)

// The disarmed-failpoint overhead guard: the chaos acceptance criteria
// require that failpoint sites on the chunk-dispatch hot path cost at
// most one atomic load and zero allocations while nothing is armed.
// The benchmarks below put a number on the per-chunk dispatch cost so
// a regression against the pre-failpoint baseline (EXPERIMENTS.md,
// "Chaos runs") is visible in CI's -benchtime=1x smoke pass and
// measurable locally with -benchtime=2s.

// BenchmarkDispatchDisarmed measures raw chunk hand-out cost: a
// trivial body over a large range with chunk 64, the paper algorithms'
// grain, on the dynamic schedule that backs every "-64" variant.
func BenchmarkDispatchDisarmed(b *testing.B) {
	const n = 1 << 20
	var sink atomic.Int64
	opts := Options{Threads: 4, Chunk: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var local int64
		For(n, opts, func(tid, lo, hi int) { local += int64(hi - lo) })
		sink.Store(local)
	}
}

// TestDisarmedInjectNoAllocs pins the contract the hot path relies on:
// a disarmed failpoint probe performs no allocations. (The ≤1 atomic
// load half of the contract is structural: failpoint.Inject's fast
// path is a single counter load.)
func TestDisarmedInjectNoAllocs(t *testing.T) {
	failpoint.Reset()
	if avg := testing.AllocsPerRun(1000, func() {
		if err := failpoint.Inject("par.dispatch"); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("disarmed failpoint.Inject allocates %v times per call, want 0", avg)
	}
}

// TestChunkPathAllocationFree asserts the per-chunk dispatch path does
// not allocate: a loop taking ~4096 chunks must allocate the same as a
// loop taking 1 chunk per thread (all of a loop's allocations —
// goroutines, closures, the panic box — are per-invocation). A small
// tolerance absorbs runtime goroutine-stack noise.
func TestChunkPathAllocationFree(t *testing.T) {
	failpoint.Reset()
	measure := func(n int) float64 {
		opts := Options{Threads: 2, Chunk: 64}
		return testing.AllocsPerRun(20, func() {
			For(n, opts, func(tid, lo, hi int) {})
		})
	}
	few, many := measure(2*64), measure(4096*64)
	if many > few+2 {
		t.Fatalf("allocations scale with chunk count: %v allocs at 2 chunks vs %v at 4096", few, many)
	}
}

// TestForOneThreadInline: a one-thread loop with a Canceler armed, as
// every served job's loops are, runs on the calling goroutine. It
// hands out the chunks a one-worker team does and counts each as a
// dispatch, allocates nothing (a team costs a goroutine, a WaitGroup
// and a panic box per loop), and a body panic still reaches the caller
// as a *WorkerPanic.
func TestForOneThreadInline(t *testing.T) {
	failpoint.Reset()
	const n = 1000
	t.Run("dynamic", func(t *testing.T) {
		want := [][2]int{{0, 64}, {64, 128}, {128, 192}, {192, 256}, {256, 320}, {320, 384}, {384, 448}, {448, 512},
			{512, 576}, {576, 640}, {640, 704}, {704, 768}, {768, 832}, {832, 896}, {896, 960}, {960, 1000}}
		st := &obs.LoopStats{}
		opts := Options{Threads: 1, Chunk: 64, Cancel: NewCanceler(), Stats: st}
		var chunks [][2]int
		For(n, opts, func(tid, lo, hi int) { chunks = append(chunks, [2]int{lo, hi}) })
		if !slices.Equal(chunks, want) {
			t.Errorf("chunks = %v, want %v", chunks, want)
		}
		if got := st.TakeDispatches(); got != int64(len(want)) {
			t.Errorf("dispatches = %d, want %d", got, len(want))
		}
		if !testutil.RaceEnabled {
			if got := testing.AllocsPerRun(100, func() { For(n, opts, func(tid, lo, hi int) {}) }); got != 0 {
				t.Errorf("one-thread cancelable loop allocates %v times, want 0", got)
			}
		}
		wp := recoverWorkerPanic(t, func() {
			For(n, opts, func(tid, lo, hi int) {
				if lo <= 900 && 900 < hi {
					panic("boom at 900")
				}
			})
		})
		if wp.Tid != 0 || wp.Value != "boom at 900" || len(wp.Stack) == 0 {
			t.Fatalf("WorkerPanic = {tid %d, %v, %d-byte stack}", wp.Tid, wp.Value, len(wp.Stack))
		}
	})
}

// TestForTeamAllocs pins the per-loop allocations of a worker team: the
// loop's shared chunk counter and closure, one WaitGroup-and-panic-box
// struct, and one closure per worker goroutine. GatherInt32 runs two
// teams plus its counts and result. The ceilings are the counts
// measured with go1.24 on amd64.
func TestForTeamAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector adds allocations")
	}
	failpoint.Reset()
	for _, tc := range []struct {
		threads        int
		forMax, gather float64
	}{
		{2, 7, 16},
		{4, 11, 24},
	} {
		for _, cn := range []*Canceler{nil, NewCanceler()} {
			opts := Options{Threads: tc.threads, Chunk: 64, Cancel: cn}
			if got := testing.AllocsPerRun(100, func() { For(10000, opts, func(tid, lo, hi int) {}) }); got > tc.forMax {
				t.Errorf("For threads=%d canceler=%v: %v allocs, want <= %v", tc.threads, cn != nil, got, tc.forMax)
			}
		}
		opts := Options{Threads: tc.threads}
		if got := testing.AllocsPerRun(100, func() {
			GatherInt32(10000, opts, func(i int32) bool { return i%3 == 0 })
		}); got > tc.gather {
			t.Errorf("GatherInt32 threads=%d: %v allocs, want <= %v", tc.threads, got, tc.gather)
		}
	}
}
