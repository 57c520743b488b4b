package d2

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/core"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/obs"
	"bgpc/internal/testutil"
	"bgpc/internal/verify"
)

// cancelOnFirstEvent is an obs.Sink that cancels a context on its
// first trace event — deterministic mid-run interruption (the first
// event fires after iteration 1's coloring phase).
type cancelOnFirstEvent struct {
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (s *cancelOnFirstEvent) Emit(obs.Event) {
	if s.fired.CompareAndSwap(false, true) {
		s.cancel()
	}
}

// TestColorCtxCancelAllVariants interrupts every named schedule's D2GC
// run mid-flight: typed error, valid partial distance-2 coloring,
// sequential completion to a fully valid coloring, no leaks.
func TestColorCtxCancelAllVariants(t *testing.T) {
	b, err := gen.Preset("channel", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range core.NamedAlgorithms() {
		t.Run(spec.Name, func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := spec.Opts
			opts.Threads = 4
			opts.Obs = obs.New(&cancelOnFirstEvent{cancel: cancel}).WithAlgo("d2/" + spec.Name)

			start := time.Now()
			res, err := ColorCtx(ctx, g, opts)
			if err == nil {
				t.Skipf("%s completed before cancellation took effect", spec.Name)
			}
			if !errors.Is(err, core.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			var ce *core.CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("err %T is not a *core.CancelError", err)
			}
			if elapsed := time.Since(start); elapsed > testutil.Scale(time.Second) {
				t.Errorf("canceled run took %v", elapsed)
			}
			if err := verify.D2GCPartial(g, res.Colors); err != nil {
				t.Fatalf("partial state invalid: %v", err)
			}
			colored := 0
			for _, c := range res.Colors {
				if c >= 0 {
					colored++
				}
			}
			if colored != ce.Colored {
				t.Fatalf("CancelError.Colored = %d, colors say %d", ce.Colored, colored)
			}

			finished := FinishSequential(g, res.Colors)
			if finished != ce.Uncolored {
				t.Fatalf("FinishSequential colored %d, want %d", finished, ce.Uncolored)
			}
			if err := verify.D2GC(g, res.Colors); err != nil {
				t.Fatalf("completed coloring invalid: %v", err)
			}
		})
	}
}

// TestColorCtxPreCanceledD2: a dead-on-arrival context stops the run
// before iteration 1.
func TestColorCtxPreCanceledD2(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	g := pathGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ColorCtx(ctx, g, Options{Threads: 2})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var ce *core.CancelError
	if !errors.As(err, &ce) || ce.Iteration != 0 {
		t.Fatalf("want *CancelError with Iteration 0, got %v", err)
	}
	if err := verify.D2GCPartial(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestRepairD2: conflicting distance-2 colors are repaired by
// uncoloring, never recoloring.
func TestRepairD2(t *testing.T) {
	g := pathGraph(t) // 0-1-2-3-4
	// 0 and 2 share middle vertex 1 → distance-2 conflict on color 0;
	// likewise 2 and 4 via 3, but 2 gets uncolored first.
	colors := []int32{0, 1, 0, 1, 0}
	colored := Repair(g, colors)
	if err := verify.D2GCPartial(g, colors); err != nil {
		t.Fatalf("repair left conflicts: %v", err)
	}
	if colors[0] != 0 {
		t.Fatalf("repair touched the first occurrence: %v", colors)
	}
	if colored >= 5 {
		t.Fatalf("repair uncolored nothing: %v", colors)
	}
}

// TestFinishSequentialFromEmptyD2 matches the sequential baseline.
func TestFinishSequentialFromEmptyD2(t *testing.T) {
	for name, g := range symPresets(t, 0.05) {
		colors := make([]int32, g.NumVertices())
		for i := range colors {
			colors[i] = core.Uncolored
		}
		if n := FinishSequential(g, colors); n != g.NumVertices() {
			t.Fatalf("%s: finished %d of %d", name, n, g.NumVertices())
		}
		if err := verify.D2GC(g, colors); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Sequential(g, nil)
		for v := range colors {
			if colors[v] != want.Colors[v] {
				t.Fatalf("%s vertex %d: FinishSequential %d, Sequential %d",
					name, v, colors[v], want.Colors[v])
			}
		}
	}
}
