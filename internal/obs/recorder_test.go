package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderIsSafeNoop: every Recorder method must be callable on
// nil — that is the contract that lets instrumentation points run
// unconditionally.
func TestNilRecorderIsSafeNoop(t *testing.T) {
	var r *Recorder
	if r.ID() != "" {
		t.Fatal("nil ID not empty")
	}
	sp := r.StartSpanKind("x", "")
	sp.End()
	r.AddSpanKind("y", "", time.Time{}, 0)
	r.Annotate("k", "v")
	if r.Attr("k") != "" {
		t.Fatal("nil Attr not empty")
	}
	r.Emit(sampleEvent())
	if r.LoopStats() != nil {
		t.Fatal("nil LoopStats must be nil")
	}
	if tl := r.Snapshot(); tl.ID != "" || len(tl.Spans) != 0 || len(tl.Iters) != 0 {
		t.Fatalf("nil Snapshot not zero: %+v", tl)
	}
	if r.Rounds() != 0 || r.MaxConflicts() != 0 || !r.Progress().IsZero() {
		t.Fatal("nil Rounds/MaxConflicts/Progress not zero")
	}

	var st *LoopStats
	st.CountDispatch()
	if st.TakeDispatches() != 0 {
		t.Fatal("nil TakeDispatches not zero")
	}
}

func TestRecorderCapturesSpansAndIters(t *testing.T) {
	r := NewRecorder("req-1", 0, 0)
	sp := r.StartSpanKind("build", "")
	sp.End()
	r.AddSpanKind("queue", "", r.Snapshot().Start, 3*time.Millisecond)
	r.Annotate("variant", "V-V")

	for round := 1; round <= 3; round++ {
		e := sampleEvent()
		e.Iter = round
		e.Phase = PhaseColor
		r.Emit(e)
		e.Phase = PhaseConflict
		e.Conflicts = 10 - round
		r.Emit(e)
	}

	tl := r.Snapshot()
	if tl.ID != "req-1" {
		t.Fatalf("id = %q", tl.ID)
	}
	if len(tl.Spans) != 2 || tl.Spans[0].Name != "build" || tl.Spans[1].Name != "queue" {
		t.Fatalf("spans: %+v", tl.Spans)
	}
	if tl.Spans[1].DurNS != (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("explicit span duration %d", tl.Spans[1].DurNS)
	}
	if len(tl.Iters) != 6 {
		t.Fatalf("iters: %d", len(tl.Iters))
	}
	if tl.Attrs["variant"] != "V-V" {
		t.Fatalf("attrs: %v", tl.Attrs)
	}
	if r.Rounds() != 3 {
		t.Fatalf("rounds = %d", r.Rounds())
	}
	// Max conflicts counts only conflict-phase events: round 1's
	// conflict event carries 9.
	if r.MaxConflicts() != 9 {
		t.Fatalf("max conflicts = %d", r.MaxConflicts())
	}
}

func TestRecorderBoundsAndCountsDrops(t *testing.T) {
	r := NewRecorder("req-2", 2, 3)
	for i := 0; i < 5; i++ {
		r.AddSpanKind(fmt.Sprintf("s%d", i), "", time.Now(), 0)
		r.Emit(sampleEvent())
	}
	tl := r.Snapshot()
	if len(tl.Spans) != 2 || tl.DroppedSpans != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2 and 3", len(tl.Spans), tl.DroppedSpans)
	}
	if len(tl.Iters) != 3 || tl.DroppedIters != 2 {
		t.Fatalf("iters=%d dropped=%d, want 3 and 2", len(tl.Iters), tl.DroppedIters)
	}
	// The defaults kick in for out-of-range bounds.
	d := NewRecorder("req-3", -1, 0)
	if d.maxSpans != DefaultMaxSpans || d.maxIters != DefaultMaxIters {
		t.Fatalf("defaults not applied: %d/%d", d.maxSpans, d.maxIters)
	}
}

// TestRecorderFactsPastTheBound: Rounds and MaxConflicts count every
// event, also the ones the iteration bound drops. A 300-iteration run
// keeps the events of its first 128 rounds; the conflict count peaks
// in round 250.
func TestRecorderFactsPastTheBound(t *testing.T) {
	r := NewRecorder("req-4", 0, 0)
	for round := 1; round <= 300; round++ {
		e := sampleEvent()
		e.Iter = round
		r.Emit(e)
		e.Phase = PhaseConflict
		e.Conflicts = 5
		if round == 250 {
			e.Conflicts = 40
		}
		r.Emit(e)
	}
	if tl := r.Snapshot(); tl.DroppedIters == 0 {
		t.Fatal("the bound dropped nothing; the test needs a longer run")
	}
	if got := r.Rounds(); got != 300 {
		t.Errorf("rounds = %d, want 300", got)
	}
	if got := r.MaxConflicts(); got != 40 {
		t.Errorf("max conflicts = %d, want 40", got)
	}
}

// TestRecorderProgressHeartbeat: the heartbeat moves when a conflict
// phase lowers the conflict count, and only then.
func TestRecorderProgressHeartbeat(t *testing.T) {
	r := NewRecorder("req-8", 0, 0)
	emit := func(phase string, conflicts int) time.Time {
		e := sampleEvent()
		e.Phase, e.Conflicts = phase, conflicts
		r.Emit(e)
		return r.Progress()
	}
	if !emit(PhaseColor, 0).IsZero() {
		t.Fatal("a coloring phase set the heartbeat")
	}
	first := emit(PhaseConflict, 9)
	if first.IsZero() {
		t.Fatal("the first conflict phase set no heartbeat")
	}
	time.Sleep(time.Millisecond)
	if got := emit(PhaseConflict, 9); !got.Equal(first) {
		t.Fatal("an unchanged conflict count moved the heartbeat")
	}
	if got := emit(PhaseConflict, 12); !got.Equal(first) {
		t.Fatal("a rising conflict count moved the heartbeat")
	}
	if got := emit(PhaseConflict, 3); !got.After(first) {
		t.Fatal("a falling conflict count left the heartbeat")
	}
}

func TestRecorderLoopStatsTakeDelta(t *testing.T) {
	r := NewRecorder("req-5", 0, 0)
	st := r.LoopStats()
	for i := 0; i < 4; i++ {
		st.CountDispatch()
	}
	if got := st.TakeDispatches(); got != 4 {
		t.Fatalf("first take = %d, want 4", got)
	}
	if got := st.TakeDispatches(); got != 0 {
		t.Fatalf("second take = %d, want 0 (Take must reset)", got)
	}
}

func TestContextWithRecorderRoundTrip(t *testing.T) {
	rec := NewRecorder("req-6", 0, 0)
	ctx := ContextWithRecorder(context.Background(), rec)
	if got := RecorderFromContext(ctx); got != rec {
		t.Fatalf("round trip lost the recorder: %v", got)
	}
	if RecorderFromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil")
	}
	if RecorderFromContext(nil) != nil {
		t.Fatal("nil context must yield nil")
	}
	if ContextWithRecorder(context.Background(), nil) != context.Background() {
		t.Fatal("nil recorder must not wrap the context")
	}
}

// TestRecorderConcurrentUse exercises emit/annotate/span/snapshot from
// many goroutines under the race detector — the recorder is shared
// between the HTTP goroutine and the pool worker in production.
func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder("req-7", 1024, 1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch w % 4 {
				case 0:
					r.Emit(sampleEvent())
				case 1:
					sp := r.StartSpanKind("s", "")
					sp.End()
				case 2:
					r.Annotate("k", "v")
					_ = r.Attr("k")
				case 3:
					_ = r.Snapshot()
					_ = r.Rounds()
					_ = r.MaxConflicts()
					_ = r.Progress()
				}
			}
		}(w)
	}
	wg.Wait()
	tl := r.Snapshot()
	if got := len(tl.Iters) + tl.DroppedIters; got != 200 {
		t.Fatalf("iters+dropped = %d, want 200", got)
	}
	if got := len(tl.Spans) + tl.DroppedSpans; got != 200 {
		t.Fatalf("spans+dropped = %d, want 200", got)
	}
}
