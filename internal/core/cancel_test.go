package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/gen"
	"bgpc/internal/obs"
	"bgpc/internal/testutil"
	"bgpc/internal/verify"
)

// cancelSink is an obs.Sink that cancels a context when the Nth trace
// event is emitted — a deterministic way to interrupt a run mid-flight
// (the first event fires at the end of iteration 1's coloring phase,
// while the work queue is still full). It records when it fired so
// tests can assert cancellation promptness.
type cancelSink struct {
	after   int32
	cancel  context.CancelFunc
	count   atomic.Int32
	firedAt atomic.Int64 // UnixNano; 0 = not fired
}

func (s *cancelSink) Emit(obs.Event) {
	if s.count.Add(1) == s.after {
		s.firedAt.Store(time.Now().UnixNano())
		s.cancel()
	}
}

func (s *cancelSink) fired() (time.Time, bool) {
	ns := s.firedAt.Load()
	return time.Unix(0, ns), ns != 0
}

// TestColorCtxCancelAllVariants interrupts every named schedule mid-run
// and checks the full degradation contract: a *CancelError matching
// ErrCanceled, a valid partial coloring, consistent progress counts,
// prompt return, no leaked goroutines — and that FinishSequential turns
// the partial state into a complete valid coloring.
func TestColorCtxCancelAllVariants(t *testing.T) {
	g, err := gen.Preset("channel", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range NamedAlgorithms() {
		t.Run(spec.Name, func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &cancelSink{after: 1, cancel: cancel}
			opts := spec.Opts
			opts.Threads = 4
			opts.Obs = obs.New(sink).WithAlgo(spec.Name)

			res, err := ColorCtx(ctx, g, opts)
			if err == nil {
				// The run finished before the watcher could trip the
				// flag — possible on a fast machine; the contract under
				// test did not come into play.
				t.Skipf("%s completed before cancellation took effect", spec.Name)
			}
			if firedTime, ok := sink.fired(); ok {
				if late := time.Since(firedTime); late > testutil.Scale(100*time.Millisecond) {
					t.Errorf("returned %v after cancel; want <%v", late, testutil.Scale(100*time.Millisecond))
				}
			}
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, does not unwrap to context.Canceled", err)
			}
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("err %T is not a *CancelError", err)
			}
			if res == nil {
				t.Fatal("canceled run returned a nil Result")
			}
			if err := verify.BGPCPartial(g, res.Colors); err != nil {
				t.Fatalf("partial state invalid: %v", err)
			}
			colored := 0
			for _, c := range res.Colors {
				if c >= 0 {
					colored++
				}
			}
			if colored != ce.Colored || len(res.Colors)-colored != ce.Uncolored {
				t.Fatalf("CancelError counts %d/%d disagree with colors %d/%d",
					ce.Colored, ce.Uncolored, colored, len(res.Colors)-colored)
			}
			if ce.Iteration < 1 {
				t.Fatalf("Iteration = %d, want ≥1 (canceled mid-iteration)", ce.Iteration)
			}

			finished := FinishSequential(g, res.Colors)
			if finished != ce.Uncolored {
				t.Fatalf("FinishSequential colored %d, want %d", finished, ce.Uncolored)
			}
			if err := verify.BGPC(g, res.Colors); err != nil {
				t.Fatalf("completed coloring invalid: %v", err)
			}
		})
	}
}

// TestColorCtxPreCanceled: a context that is dead on arrival must stop
// the run before any iteration, with every vertex uncolored (except
// degree-0 vertices, which take color 0 during queue construction).
func TestColorCtxPreCanceled(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	g := tinyGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ColorCtx(ctx, g, Options{Threads: 2})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not a *CancelError", err)
	}
	if ce.Iteration != 0 {
		t.Fatalf("Iteration = %d, want 0 (never started)", ce.Iteration)
	}
	if err := verify.BGPCPartial(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestColorCtxDeadline: an expired deadline surfaces as both
// ErrCanceled and context.DeadlineExceeded.
func TestColorCtxDeadline(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	g, err := gen.Preset("copapers", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline definitely pass
	res, cerr := ColorCtx(ctx, g, Options{Threads: 4, Chunk: 64})
	if cerr == nil {
		t.Skip("run outpaced the already-expired deadline watcher")
	}
	if !errors.Is(cerr, ErrCanceled) || !errors.Is(cerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled ∧ DeadlineExceeded", cerr)
	}
	if err := verify.BGPCPartial(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestColorCtxNilAndBackgroundContexts: Color and ColorCtx with
// background/nil contexts behave exactly like the uncancelable path.
func TestColorCtxNilAndBackgroundContexts(t *testing.T) {
	g := tinyGraph(t)
	for name, ctx := range map[string]context.Context{
		"nil":        nil,
		"background": context.Background(),
	} {
		res, err := ColorCtx(ctx, g, Options{Threads: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.BGPC(g, res.Colors); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestRepairBGPC: a deliberately conflicting coloring is repaired to a
// valid partial state by uncoloring later duplicates only.
func TestRepairBGPC(t *testing.T) {
	g := tinyGraph(t)             // nets {0,1,2}, {2,3}, {1,3}
	colors := []int32{0, 0, 1, 1} // net0: 0 vs 1 clash on color 0; net1: 2 vs 3 clash on 1
	colored := Repair(g, colors)
	if err := verify.BGPCPartial(g, colors); err != nil {
		t.Fatalf("repair left conflicts: %v", err)
	}
	if colors[0] != 0 || colors[2] != 1 {
		t.Fatalf("repair uncolored a first occurrence: %v", colors)
	}
	if colors[1] != Uncolored || colors[3] != Uncolored {
		t.Fatalf("repair kept a duplicate: %v", colors)
	}
	if colored != 2 {
		t.Fatalf("colored = %d, want 2", colored)
	}
}

// TestFinishSequentialFromEmpty: completing an all-Uncolored state is
// exactly the sequential greedy algorithm.
func TestFinishSequentialFromEmpty(t *testing.T) {
	g, err := gen.Preset("movielens", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int32, g.NumVertices())
	for i := range colors {
		colors[i] = Uncolored
	}
	if n := FinishSequential(g, colors); n != g.NumVertices() {
		t.Fatalf("finished %d of %d", n, g.NumVertices())
	}
	if err := verify.BGPC(g, colors); err != nil {
		t.Fatal(err)
	}
	want := Sequential(g, nil)
	for u := range colors {
		if colors[u] != want.Colors[u] {
			t.Fatalf("vertex %d: FinishSequential %d, Sequential %d",
				u, colors[u], want.Colors[u])
		}
	}
}

// TestColorCtxOneThreadInline: at threads = 1 a cancelable context
// runs every loop on the calling goroutine, chunk by chunk. It colors
// exactly as context.Background() does, and its work is the one a
// one-worker team charged, chunk dispatches included (pinned, as
// measured with the team). On go1.24, linux/amd64 one run allocated
// 37, 23 and 22 times; with a goroutine, a WaitGroup and a panic box
// per loop it allocated 57, 33 and 32 times. The ceilings sit halfway
// between, so they catch the per-loop goroutine coming back and leave
// room for another toolchain's counts.
func TestColorCtxOneThreadInline(t *testing.T) {
	g := smallPresets(t)["channel"]
	for _, tc := range []struct {
		algo   string
		work   int64
		allocs float64
	}{
		{"N1-N2", 29543, 47},
		{"V-V-64D", 94200, 28},
		{"V-V", 96168, 27},
	} {
		algo := tc.algo
		t.Run(algo, func(t *testing.T) {
			opts, err := ParseAlgorithm(algo)
			if err != nil {
				t.Fatal(err)
			}
			opts.Threads = 1
			base, err := ColorCtx(context.Background(), g, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			run := func() *Result {
				res, err := ColorCtx(ctx, g, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run()
			if !slices.Equal(res.Colors, base.Colors) {
				t.Fatal("a cancelable context colors differently from context.Background()")
			}
			if res.TotalWork != tc.work {
				t.Errorf("work = %d, want %d", res.TotalWork, tc.work)
			}
			if testutil.RaceEnabled {
				return
			}
			if got := testing.AllocsPerRun(20, func() { run() }); got > tc.allocs {
				t.Errorf("one run allocates %v times, ceiling %v", got, tc.allocs)
			}
		})
	}
}
