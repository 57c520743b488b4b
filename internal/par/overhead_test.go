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
	opts := Options{Threads: 4, Schedule: Dynamic, Chunk: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var local int64
		For(n, opts, func(tid, lo, hi int) { local += int64(hi - lo) })
		sink.Store(local)
	}
}

// BenchmarkDispatchGuidedDisarmed is the same guard for the guided
// schedule's CAS-based dispatch loop.
func BenchmarkDispatchGuidedDisarmed(b *testing.B) {
	const n = 1 << 20
	var sink atomic.Int64
	opts := Options{Threads: 4, Schedule: Guided, Chunk: 64}
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
		opts := Options{Threads: 2, Schedule: Dynamic, Chunk: 64}
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
	for _, tc := range []struct {
		name   string
		sched  Schedule
		chunks [][2]int
	}{
		{"dynamic", Dynamic, [][2]int{{0, 64}, {64, 128}, {128, 192}, {192, 256}, {256, 320}, {320, 384}, {384, 448}, {448, 512},
			{512, 576}, {576, 640}, {640, 704}, {704, 768}, {768, 832}, {832, 896}, {896, 960}, {960, 1000}}},
		{"static", Static, [][2]int{{0, 1000}}},
		{"guided", Guided, [][2]int{{0, 500}, {500, 750}, {750, 875}, {875, 939}, {939, 1000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &obs.LoopStats{}
			opts := Options{Threads: 1, Schedule: tc.sched, Chunk: 64, Cancel: NewCanceler(), Stats: st}
			var chunks [][2]int
			For(n, opts, func(tid, lo, hi int) { chunks = append(chunks, [2]int{lo, hi}) })
			if !slices.Equal(chunks, tc.chunks) {
				t.Errorf("chunks = %v, want %v", chunks, tc.chunks)
			}
			wantDispatches := int64(len(tc.chunks))
			if tc.sched == Static {
				wantDispatches = 0
			}
			if got := st.TakeDispatches(); got != wantDispatches {
				t.Errorf("dispatches = %d, want %d", got, wantDispatches)
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
}
