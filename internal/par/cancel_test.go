package par

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/testutil"
)

func TestCancelerNilSafe(t *testing.T) {
	var c *Canceler
	c.Cancel() // must not panic
	if c.Canceled() {
		t.Fatal("nil Canceler reports canceled")
	}
	stop := c.WatchContext(context.Background())
	if stop() {
		t.Fatal("watcher on a Done()-less context claims it ran")
	}
}

func TestCancelerWatchContext(t *testing.T) {
	cn := NewCanceler()
	ctx, cancel := context.WithCancel(context.Background())
	stop := cn.WatchContext(ctx)
	defer stop()
	if cn.Canceled() {
		t.Fatal("canceled before the context fired")
	}
	cancel()
	testutil.WaitFor(t, time.Second, cn.Canceled, "canceler to observe context cancellation")
}

// TestForArmedUncanceled: merely arming a Canceler must not change the
// covering guarantee — every index visited exactly once.
func TestForArmedUncanceled(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		testutil.CheckGoroutineLeaks(t)
		const n = 100_000
		visits := make([]atomic.Int32, n)
		For(n, Options{Threads: 4, Chunk: 64, Cancel: NewCanceler()},
			func(tid, lo, hi int) {
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("index %d visited %d times", i, got)
			}
		}
	})
}

// TestForCancelPartialCoverage: cancel mid-loop. The loop must return
// (no hang), visit no index twice, and leave part of the range
// unvisited — cancellation that silently completes the loop would mean
// the flag is never polled.
func TestForCancelPartialCoverage(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		testutil.CheckGoroutineLeaks(t)
		const n = 1 << 20
		cn := NewCanceler()
		var visited atomic.Int64
		visits := make([]atomic.Int32, n)
		For(n, Options{Threads: 4, Chunk: 256, Cancel: cn},
			func(tid, lo, hi int) {
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
					if visited.Add(1) == n/16 {
						cn.Cancel()
					}
				}
			})
		total := visited.Load()
		if total == n {
			t.Fatalf("loop completed all %d iterations despite cancel", n)
		}
		for i := range visits {
			if got := visits[i].Load(); got > 1 {
				t.Fatalf("index %d visited %d times", i, got)
			}
		}
		t.Logf("covered %d/%d before stopping", total, n)
	})
}

// TestForCancelPrompt: with a body that takes real time per chunk, a
// cancel from outside must return the loop well before it would have
// finished. This is the <100ms promptness contract from the issue,
// race-scaled.
func TestForCancelPrompt(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		testutil.CheckGoroutineLeaks(t)
		// 4096 chunks × 1ms each on 4 threads ≈ 1s uncanceled.
		const n = 4096
		cn := NewCanceler()
		started := make(chan struct{})
		var once atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			For(n, Options{Threads: 4, Chunk: 1, Cancel: cn},
				func(tid, lo, hi int) {
					if once.CompareAndSwap(false, true) {
						close(started)
					}
					time.Sleep(time.Millisecond)
				})
		}()
		<-started
		start := time.Now()
		cn.Cancel()
		select {
		case <-done:
		case <-time.After(testutil.Scale(100 * time.Millisecond)):
			t.Fatalf("loop did not return within %s of Cancel", testutil.Scale(100*time.Millisecond))
		}
		t.Logf("returned %s after Cancel", time.Since(start))
	})
}

// TestForCanceledBeforeStart: a pre-canceled loop must not run the
// body at all.
func TestForCanceledBeforeStart(t *testing.T) {
	cn := NewCanceler()
	cn.Cancel()
	ran := false
	For(1000, Options{Threads: 4, Cancel: cn}, func(tid, lo, hi int) { ran = true })
	if ran {
		t.Fatal("body ran on a pre-canceled loop")
	}
}

// TestForSingleThreadCancel: the t==1 path must still honor an armed
// canceler (it cannot take the sequential fast path): it hands out
// chunks on the caller and polls between them.
func TestForSingleThreadCancel(t *testing.T) {
	cn := NewCanceler()
	var visited int
	For(1<<20, Options{Threads: 1, Chunk: 64, Cancel: cn},
		func(tid, lo, hi int) {
			for i := lo; i < hi; i++ {
				visited++
				if visited == 1000 {
					cn.Cancel()
				}
			}
		})
	if visited == 1<<20 {
		t.Fatal("single-threaded loop ignored cancel")
	}
}

// TestForLeakFree: a heavily canceled workload repeated many times must
// not accumulate goroutines — the barrier must always be reached.
func TestForLeakFree(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	for iter := 0; iter < 50; iter++ {
		cn := NewCanceler()
		For(10_000, Options{Threads: 8, Chunk: 16, Cancel: cn},
			func(tid, lo, hi int) {
				if lo > 100 {
					cn.Cancel()
				}
			})
	}
}
