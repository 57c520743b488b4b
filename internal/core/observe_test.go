package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"bgpc/internal/gen"
	"bgpc/internal/obs"
	"bgpc/internal/par"
	"bgpc/internal/testutil"
)

// eventSink collects every event it is sent, in order.
type eventSink struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (s *eventSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.evs = append(s.evs, e)
	s.mu.Unlock()
}

func (s *eventSink) events() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.evs)
}

// TestTraceEventsMatchIterStats: the trace must agree with the
// runner's own per-iteration statistics — two events per iteration
// (color then conflict), with matching kinds, queue sizes, conflict
// counts, and work totals — and every phase must count its chunk
// dispatches, whether an Observer alone or an Observer beside a
// context Recorder receives the events. The Recorder is handed the
// same counts as the Observer.
func TestTraceEventsMatchIterStats(t *testing.T) {
	g, err := gen.Preset("copapers", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, withRec := range []bool{false, true} {
		ctx := context.Background()
		var rec *obs.Recorder
		if withRec {
			rec = obs.NewRecorder("", 0, 0)
			ctx = obs.ContextWithRecorder(ctx, rec)
		}
		sink := &eventSink{}
		opts := Options{
			Threads: 4, Chunk: 64, LazyQueues: true,
			NetColorIters: 1, NetCRIters: 2,
			CollectPerIteration: true,
			Obs:                 obs.New(sink).WithAlgo("N1-N2"),
		}
		res, err := ColorCtx(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		evs := sink.events()
		checkTraceEvents(t, evs, res)
		for i, e := range evs {
			if e.Dispatches < 1 {
				t.Fatalf("recorder=%v: event %d (%s[%s] iter %d) counted %d dispatches",
					withRec, i, e.Phase, e.Kind, e.Iter, e.Dispatches)
			}
		}
		if !withRec {
			continue
		}
		iters := rec.Snapshot().Iters
		if len(iters) != len(evs) {
			t.Fatalf("the Recorder got %d events, the Observer %d", len(iters), len(evs))
		}
		for i, it := range iters {
			if it.Dispatches != evs[i].Dispatches || it.Items != evs[i].Items {
				t.Fatalf("event %d: the Recorder got %d dispatches over %d items, the Observer %d over %d",
					i, it.Dispatches, it.Items, evs[i].Dispatches, evs[i].Items)
			}
		}
	}
}

// checkTraceEvents checks a run's trace against its per-iteration
// statistics.
func checkTraceEvents(t *testing.T, evs []obs.Event, res *Result) {
	t.Helper()
	if len(evs) != 2*res.Iterations {
		t.Fatalf("got %d events for %d iterations, want %d", len(evs), res.Iterations, 2*res.Iterations)
	}
	for i, it := range res.Iters {
		color, conflict := evs[2*i], evs[2*i+1]
		if color.Phase != obs.PhaseColor || conflict.Phase != obs.PhaseConflict {
			t.Fatalf("iter %d: phases out of order: %q, %q", i+1, color.Phase, conflict.Phase)
		}
		if color.Iter != i+1 || conflict.Iter != i+1 {
			t.Fatalf("iter %d: event iters %d, %d", i+1, color.Iter, conflict.Iter)
		}
		if color.Algo != "N1-N2" || conflict.Algo != "N1-N2" {
			t.Fatalf("iter %d: algo labels %q, %q", i+1, color.Algo, conflict.Algo)
		}
		if got, want := color.Kind, phaseKind(it.NetColoring); got != want {
			t.Fatalf("iter %d: color kind %q, want %q", i+1, got, want)
		}
		if got, want := conflict.Kind, phaseKind(it.NetCR); got != want {
			t.Fatalf("iter %d: conflict kind %q, want %q", i+1, got, want)
		}
		if conflict.Conflicts != it.Conflicts {
			t.Fatalf("iter %d: trace conflicts %d, stats %d", i+1, conflict.Conflicts, it.Conflicts)
		}
		if color.Work != it.ColoringWork || color.MaxWork != it.ColoringMaxWork {
			t.Fatalf("iter %d: trace work %d/%d, stats %d/%d", i+1,
				color.Work, color.MaxWork, it.ColoringWork, it.ColoringMaxWork)
		}
		if conflict.Work != it.ConflictWork {
			t.Fatalf("iter %d: trace conflict work %d, stats %d", i+1, conflict.Work, it.ConflictWork)
		}
		if color.Threads != 4 || color.Chunk != 64 || color.Sched != "dynamic" {
			t.Fatalf("iter %d: config fields %d/%d/%q", i+1, color.Threads, color.Chunk, color.Sched)
		}
		if color.Colors <= 0 {
			t.Fatalf("iter %d: no colors recorded after coloring phase", i+1)
		}
	}
	// The final conflict event must report zero remaining conflicts,
	// and the final colors count must match the result.
	last := evs[len(evs)-1]
	if last.Conflicts != 0 {
		t.Fatalf("final event reports %d conflicts", last.Conflicts)
	}
	if last.Colors != res.NumColors {
		t.Fatalf("final event colors %d, result %d", last.Colors, res.NumColors)
	}
}

// TestTraceDeterministicSingleThreadNetV1: with one thread the NetV1
// variant produces deterministic conflicts (the Table I construction),
// so the trace is reproducible run to run — the property the CLI
// golden test builds on.
func TestTraceDeterministicSingleThreadNetV1(t *testing.T) {
	g, err := gen.Preset("copapers", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []obs.Event {
		sink := &eventSink{}
		opts := Options{
			Threads: 1, Chunk: 64, LazyQueues: true,
			NetColorIters: 1, NetCRIters: 2, NetColorVariant: NetV1,
			Obs: obs.New(sink).WithAlgo("table1"),
		}
		if _, err := Color(g, opts); err != nil {
			t.Fatal(err)
		}
		return sink.events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	foundConflicts := false
	for i := range a {
		ea, eb := a[i], b[i]
		ea.WallNS, eb.WallNS = 0, 0 // wall time is the only nondeterministic field
		if ea != eb {
			t.Fatalf("event %d differs:\n%+v\n%+v", i, ea, eb)
		}
		if ea.Phase == obs.PhaseConflict && ea.Conflicts > 0 {
			foundConflicts = true
		}
	}
	if !foundConflicts {
		t.Fatal("NetV1 single-thread run produced no conflicts; Table I premise broken")
	}
}

// TestSharedQueuePushNoAlloc: the queue push sits on the conflict
// path of every non-lazy vertex phase; it must not allocate.
func TestSharedQueuePushNoAlloc(t *testing.T) {
	q := par.NewSharedQueue(4)
	allocs := testing.AllocsPerRun(1000, func() {
		q.Reset()
		q.Push(1)
		q.Push(2)
	})
	if allocs != 0 {
		t.Fatalf("SharedQueue.Push allocated %.1f per run", allocs)
	}
}

// TestColorWithNilObserverSameResult: attaching no observer must be
// behaviourally invisible — identical coloring on a deterministic
// (single-thread) run, and identical stats.
func TestColorWithNilObserverSameResult(t *testing.T) {
	g, err := gen.Preset("nlpkkt", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Color(g, Options{Threads: 1, Chunk: 64, NetColorIters: 1, NetCRIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Color(g, Options{
		Threads: 1, Chunk: 64, NetColorIters: 1, NetCRIters: 2,
		Obs: obs.New(&eventSink{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumColors != traced.NumColors || plain.Iterations != traced.Iterations ||
		plain.TotalWork != traced.TotalWork {
		t.Fatalf("observer changed the run: %d/%d/%d vs %d/%d/%d",
			plain.NumColors, plain.Iterations, plain.TotalWork,
			traced.NumColors, traced.Iterations, traced.TotalWork)
	}
	for u := range plain.Colors {
		if plain.Colors[u] != traced.Colors[u] {
			t.Fatalf("vertex %d: %d vs %d", u, plain.Colors[u], traced.Colors[u])
		}
	}
}

// TestRecorderRunAllocs: a request Recorder in the context, with no
// Observer, costs a run no allocation beyond the Recorder's own appends
// of its per-phase events — no Observer, run-local dispatch count or
// per-event buffer.
func TestRecorderRunAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, err := gen.Preset("channel", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := ParseAlgorithm("N1-N2")
	if err != nil {
		t.Fatal(err)
	}
	opts.Threads = 1
	run := func(ctx context.Context) {
		if _, err := ColorCtx(ctx, g, opts); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	plain := testing.AllocsPerRun(runs, func() { run(context.Background()) })

	// AllocsPerRun calls its function runs+1 times; each call gets a
	// fresh Recorder, made outside the measurement.
	ctxs := make([]context.Context, runs+1)
	recs := make([]*obs.Recorder, runs+1)
	for i := range ctxs {
		recs[i] = obs.NewRecorder("", 0, 0)
		ctxs[i] = obs.ContextWithRecorder(context.Background(), recs[i])
	}
	next := 0
	recorded := testing.AllocsPerRun(runs, func() {
		run(ctxs[next])
		next++
	})
	events := len(recs[0].Snapshot().Iters)
	if events == 0 {
		t.Fatal("the Recorder received no events")
	}
	appends := testing.AllocsPerRun(runs, func() {
		var iters []obs.IterEvent
		for i := 0; i < events; i++ {
			iters = append(iters, obs.IterEvent{Round: i})
		}
		iterSink = iters
	})
	if recorded > plain+appends {
		t.Fatalf("a run with a Recorder allocates %v times, %v without and %v for its %d appends",
			recorded, plain, appends, events)
	}
}

var iterSink []obs.IterEvent

// BenchmarkColor is the acceptance benchmark: the speculative runner
// with observability disabled (the default). Compare against
// BenchmarkColorTraced to see the opt-in cost.
func BenchmarkColor(b *testing.B) {
	g, err := gen.Preset("copapers", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Threads: 4, Chunk: 64, LazyQueues: true, NetColorIters: 1, NetCRIters: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Color(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColorTraced is the same run with an in-memory trace
// attached, to keep the observability overhead honest.
func BenchmarkColorTraced(b *testing.B) {
	g, err := gen.Preset("copapers", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	sink := &eventSink{}
	opts := Options{
		Threads: 4, Chunk: 64, LazyQueues: true, NetColorIters: 1, NetCRIters: 2,
		Obs: obs.New(sink).WithAlgo("N1-N2"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.evs = sink.evs[:0]
		if _, err := Color(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
