package par

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/testutil"
)

// recoverWorkerPanic runs fn and returns the *WorkerPanic it re-raises,
// failing the test if fn returns without panicking or panics with
// something else.
func recoverWorkerPanic(t *testing.T, fn func()) *WorkerPanic {
	t.Helper()
	var wp *WorkerPanic
	func() {
		defer func() {
			r := recover()
			var ok bool
			if wp, ok = r.(*WorkerPanic); !ok {
				t.Fatalf("recovered %v (%T), want *WorkerPanic", r, r)
			}
		}()
		fn()
		t.Fatal("no panic reached the caller")
	}()
	return wp
}

func TestForReraisesWorkerPanic(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Run("dynamic", func(t *testing.T) {
		wp := recoverWorkerPanic(t, func() {
			For(10_000, Options{Threads: 4, Chunk: 64, Cancel: NewCanceler()},
				func(tid, lo, hi int) {
					if lo <= 5000 && 5000 < hi {
						panic("boom at 5000")
					}
				})
		})
		if wp.Value != "boom at 5000" {
			t.Fatalf("panic value = %v", wp.Value)
		}
		if len(wp.Stack) == 0 || !strings.Contains(wp.String(), "boom at 5000") {
			t.Fatalf("WorkerPanic carries no useful stack/string: %s", wp)
		}
	})
}

// TestForPanicBarrierCompletes: the non-panicking workers run to
// completion before the re-raise — the barrier still holds, so callers
// never observe a half-running loop after recovering.
func TestForPanicBarrierCompletes(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const n = 100_000
	covered := make([]int32, n)
	recoverWorkerPanic(t, func() {
		For(n, Options{Threads: 4, Chunk: 64}, func(tid, lo, hi int) {
			if lo == 0 {
				panic("first chunk dies")
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
	})
	// Every index outside the panicking chunk was visited exactly once.
	for i := 64; i < n; i++ {
		if covered[i] != 1 {
			t.Fatalf("index %d visited %d times after worker panic", i, covered[i])
		}
	}
}

func TestSingleThreadPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic")
		}
	}()
	For(10, Options{Threads: 1}, func(tid, lo, hi int) { panic("seq") })
}

// TestDispatchFailpointCancel: an armed "par.dispatch=cancel" stops a
// loop with a Canceler mid-range, and leaves loops without a Canceler
// fully covered (the covering guarantee must not silently break).
func TestDispatchFailpointCancel(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(failpoint.Reset)

	failpoint.Reset()
	if err := failpoint.Arm(FPDispatch, "cancel@1"); err != nil {
		t.Fatal(err)
	}
	const threads, chunk = 2, 64
	cn := NewCanceler()
	var visited atomic.Int64
	// Every chunk body holds until the cancel has landed. The worker
	// whose probe fires the failpoint cancels right after it, but a
	// descheduled firer would otherwise let the other worker hand out
	// the whole range first. Held bodies mean no worker takes a second
	// chunk before the cancel, whatever the scheduler does.
	deadline := time.Now().Add(testutil.Scale(10 * time.Second))
	For(1_000_000, Options{Threads: threads, Chunk: chunk, Cancel: cn}, func(tid, lo, hi int) {
		for !cn.Canceled() && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		visited.Add(int64(hi - lo))
	})
	if !cn.Canceled() {
		t.Fatal("cancel failpoint did not trip the Canceler")
	}
	if v := visited.Load(); v >= 1_000_000 {
		t.Fatalf("loop covered the full range (%d) despite cancellation", v)
	}
	if v := visited.Load(); v > threads*chunk {
		t.Fatalf("loop covered %d after the cancel, want at most one chunk per worker (%d)", v, threads*chunk)
	}

	// Without a Canceler the cancel action must be a no-op.
	failpoint.Reset()
	if err := failpoint.Arm(FPDispatch, "cancel@1"); err != nil {
		t.Fatal(err)
	}
	var full atomic.Int64
	For(100_000, Options{Threads: 2, Chunk: 64}, func(tid, lo, hi int) {
		full.Add(int64(hi - lo))
	})
	if v := full.Load(); v != 100_000 {
		t.Fatalf("cancel failpoint broke the covering guarantee on a cancel-free loop: covered %d", v)
	}
}

// TestDispatchFailpointPanicContained: a panic injected at a chunk
// boundary surfaces as a *WorkerPanic on the caller, not a process
// crash from an anonymous goroutine.
func TestDispatchFailpointPanicContained(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	if err := failpoint.Arm(FPDispatch, "panic@1#3"); err != nil {
		t.Fatal(err)
	}
	wp := recoverWorkerPanic(t, func() {
		For(100_000, Options{Threads: 4, Chunk: 64}, func(tid, lo, hi int) {})
	})
	if fe, ok := wp.Value.(*failpoint.Error); !ok || fe.Name != FPDispatch {
		t.Fatalf("panic value = %v, want *failpoint.Error for %s", wp.Value, FPDispatch)
	}
}
