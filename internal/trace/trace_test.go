package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"bgpc/internal/obs"
)

const (
	tid1 = "4bf92f3577b34da6a3ce929d0e0e4736"
	pid1 = "00f067aa0ba902b7"
)

func TestTraceparentRoundTrip(t *testing.T) {
	h := Traceparent(tid1, pid1, true)
	if h != "00-"+tid1+"-"+pid1+"-01" {
		t.Fatalf("rendered %q", h)
	}
	tid, pid, sampled, ok := obs.ParseTraceparent(h)
	if !ok || tid != tid1 || pid != pid1 || !sampled {
		t.Fatalf("round trip lost data: %q %q %v %v", tid, pid, sampled, ok)
	}
	if h := Traceparent(tid1, pid1, false); !strings.HasSuffix(h, "-00") {
		t.Fatalf("unsampled flags byte: %q", h)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-" + tid1 + "-" + pid1,         // missing flags
		"ff-" + tid1 + "-" + pid1 + "-01", // forbidden version
		"zz-" + tid1 + "-" + pid1 + "-01", // non-hex version
		"00-" + strings.Repeat("0", 32) + "-" + pid1 + "-01", // zero trace id
		"00-" + tid1 + "-" + strings.Repeat("0", 16) + "-01", // zero parent id
		"00-" + tid1[:31] + "-" + pid1 + "-01",               // short trace id
		"00-" + tid1 + "-" + pid1 + "-0g",                    // non-hex flags
		"not a traceparent at all",
	}
	for _, h := range bad {
		if _, _, _, ok := obs.ParseTraceparent(h); ok {
			t.Errorf("accepted malformed %q", h)
		}
	}
}

func TestParseTraceparentNormalizesCase(t *testing.T) {
	up := "00-" + strings.ToUpper(tid1) + "-" + strings.ToUpper(pid1) + "-01"
	tid, pid, _, ok := obs.ParseTraceparent(up)
	if !ok || tid != tid1 || pid != pid1 {
		t.Fatalf("uppercase ids must parse lowercased: %q %q %v", tid, pid, ok)
	}
}

func TestParseTraceparentFutureVersionExtraFields(t *testing.T) {
	// A future version may append fields; parsing must tolerate them.
	h := "01-" + tid1 + "-" + pid1 + "-01-extrastuff"
	tid, _, sampled, ok := obs.ParseTraceparent(h)
	if !ok || tid != tid1 || !sampled {
		t.Fatalf("future-version header rejected: %q %v %v", tid, sampled, ok)
	}
}

func TestExtractAdoptsInboundContext(t *testing.T) {
	sc := Extract(Traceparent(tid1, pid1, true), "ignored", Sampler{})
	if sc.TraceID != tid1 || sc.ParentID != pid1 || !sc.Sampled {
		t.Fatalf("inbound context not adopted: %+v", sc)
	}
	if !ValidSpanID(sc.SpanID) || sc.SpanID == pid1 {
		t.Fatalf("root span id must be fresh and valid: %+v", sc)
	}
}

func TestExtractStartsTraceFromFallback(t *testing.T) {
	sc := Extract("", tid1, Sampler{HeadRatio: 1})
	if sc.TraceID != tid1 {
		t.Fatalf("fallback (request) id must become the trace id: %+v", sc)
	}
	if sc.ParentID != "" || !sc.Sampled || !ValidSpanID(sc.SpanID) {
		t.Fatalf("fresh root context wrong: %+v", sc)
	}
	// Garbage fallback: a valid trace id must still be minted.
	sc = Extract("", "not-a-trace-id", Sampler{})
	if !ValidTraceID(sc.TraceID) {
		t.Fatalf("minted trace id invalid: %+v", sc)
	}
}

func TestSamplerHeadDeterministicAndProportional(t *testing.T) {
	s := Sampler{HeadRatio: 0.5}
	kept := 0
	for i := 0; i < 2000; i++ {
		id := DeriveSpanID(tid1, i, "seed") + DeriveSpanID(tid1, i, "rest")
		if s.Head(id) != s.Head(id) {
			t.Fatal("head decision must be deterministic per id")
		}
		if s.Head(id) {
			kept++
		}
	}
	if kept < 800 || kept > 1200 {
		t.Fatalf("ratio 0.5 kept %d/2000 — hash badly skewed", kept)
	}
	if !(Sampler{HeadRatio: 1}).Head(tid1) {
		t.Fatal("ratio 1 must keep everything")
	}
	if (Sampler{}).Head(tid1) {
		t.Fatal("zero sampler must keep nothing")
	}
}

func TestSamplerKeepTailConditions(t *testing.T) {
	s := Sampler{KeepErrors: true, SlowNS: int64(time.Second)}
	cases := []struct {
		sampled bool
		status  int
		dur     int64
		want    bool
	}{
		{true, 200, 0, true},                       // head-sampled always kept
		{false, 200, 0, false},                     // boring request dropped
		{false, 500, 0, true},                      // error tail-keep
		{false, 404, 0, false},                     // 4xx is not an error keep
		{false, 200, int64(2 * time.Second), true}, // slow tail-keep
		{false, 200, int64(time.Millisecond), false},
	}
	for i, c := range cases {
		if got := s.Keep(c.sampled, c.status, c.dur); got != c.want {
			t.Errorf("case %d: Keep(%v,%d,%d)=%v want %v", i, c.sampled, c.status, c.dur, got, c.want)
		}
	}
	if (Sampler{}).Keep(false, 500, int64(time.Hour)) {
		t.Fatal("zero sampler must not tail-keep")
	}
}

func TestDeriveSpanIDStableAndDistinct(t *testing.T) {
	a := DeriveSpanID(pid1, 0, "queue")
	if a != DeriveSpanID(pid1, 0, "queue") {
		t.Fatal("derivation must be deterministic")
	}
	if !ValidSpanID(a) {
		t.Fatalf("derived id %q invalid", a)
	}
	seen := map[string]bool{a: true}
	for i := 1; i < 100; i++ {
		id := DeriveSpanID(pid1, i, "queue")
		if seen[id] {
			t.Fatalf("collision at idx %d: %s", i, id)
		}
		seen[id] = true
	}
	if DeriveSpanID(pid1, 0, "queue") == DeriveSpanID(pid1, 0, "color") {
		t.Fatal("name must feed the derivation")
	}
}

func TestNewSpanIDValid(t *testing.T) {
	a, b := NewSpanID(), NewSpanID()
	if !ValidSpanID(a) || !ValidSpanID(b) || a == b {
		t.Fatalf("minted ids bad: %q %q", a, b)
	}
}

// timelineFor builds a completed request timeline like the service's
// serving path would: trace context set, two phase spans, stamped
// status/duration.
func timelineFor(traceID, spanID, parentID string) obs.Timeline {
	return obs.Timeline{
		ID:       traceID,
		Start:    time.Unix(1700000000, 0),
		TraceID:  traceID,
		SpanID:   spanID,
		ParentID: parentID,
		Sampled:  true,
		Status:   200,
		DurNS:    int64(5 * time.Millisecond),
		Spans: []obs.Span{
			{Name: "queue", Kind: KindQueue, DurNS: 100},
			{Name: "color", Kind: KindColor, DurNS: 400},
		},
	}
}

func TestFragmentFromTimeline(t *testing.T) {
	f := FragmentFromTimeline(timelineFor(tid1, pid1, "aaaaaaaaaaaaaaaa"), "bgpcd")
	if f.TraceID != tid1 || f.Process != "bgpcd" || f.RootID != pid1 || f.ParentID != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("fragment header wrong: %+v", f)
	}
	if len(f.Spans) != 3 {
		t.Fatalf("want root + 2 children, got %d spans", len(f.Spans))
	}
	root := f.Spans[0]
	if root.Kind != KindServer || root.ID != pid1 || root.Parent != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("synthesized root wrong: %+v", root)
	}
	for _, sp := range f.Spans[1:] {
		if sp.Parent != pid1 {
			t.Fatalf("child %q must parent to the root: %+v", sp.Name, sp)
		}
		if !ValidSpanID(sp.ID) {
			t.Fatalf("child %q id %q invalid", sp.Name, sp.ID)
		}
	}
	if f.Spans[1].ID == f.Spans[2].ID {
		t.Fatal("derived child ids must be distinct")
	}
}

func TestAssembledValidateAcceptsCrossProcessTree(t *testing.T) {
	// Router fragment with a hop span; backend fragment parented to it.
	rt := FragmentFromTimeline(obs.Timeline{
		ID: tid1, TraceID: tid1, SpanID: pid1, Sampled: true, Status: 200,
		Spans: []obs.Span{
			{Name: "pick", Kind: KindPick},
			{Name: "hop", Kind: KindProxy, ID: "bbbbbbbbbbbbbbbb"},
		},
	}, "bgpcrouter")
	be := FragmentFromTimeline(timelineFor(tid1, "cccccccccccccccc", "bbbbbbbbbbbbbbbb"), "bgpcd")
	asm := Assembled{TraceID: tid1, Fragments: []Fragment{rt, be}}
	if err := asm.Validate(); err != nil {
		t.Fatalf("valid cross-process trace rejected: %v", err)
	}
	if got := asm.Processes(); len(got) != 2 {
		t.Fatalf("processes: %v", got)
	}
	if len(asm.FindSpans(KindProxy)) != 1 || len(asm.FindSpans(KindColor)) != 1 {
		t.Fatal("FindSpans missed kinds across fragments")
	}
}

func TestAssembledValidateRejectsCycle(t *testing.T) {
	// Two root spans parenting each other across fragments.
	a := Fragment{TraceID: tid1, Process: "a", RootID: pid1, Start: time.Unix(0, 0),
		Spans: []obs.Span{{Name: "request", Kind: KindServer, ID: pid1, Parent: "bbbbbbbbbbbbbbbb"}}}
	b := Fragment{TraceID: tid1, Process: "b", RootID: "bbbbbbbbbbbbbbbb", Start: time.Unix(0, 0),
		Spans: []obs.Span{{Name: "request", Kind: KindServer, ID: "bbbbbbbbbbbbbbbb", Parent: pid1}}}
	asm := Assembled{TraceID: tid1, Fragments: []Fragment{a, b}}
	if err := asm.Validate(); err == nil {
		t.Fatal("cyclic parentage must fail validation")
	}
}

func TestAssembledValidateRejectsDuplicateSpanIDs(t *testing.T) {
	f := FragmentFromTimeline(timelineFor(tid1, pid1, ""), "bgpcd")
	asm := Assembled{TraceID: tid1, Fragments: []Fragment{f, f}}
	if err := asm.Validate(); err == nil {
		t.Fatal("duplicate span ids across fragments must fail validation")
	}
}

func TestAssembledValidateRejectsMismatchedTraceID(t *testing.T) {
	f := FragmentFromTimeline(timelineFor(tid1, pid1, ""), "bgpcd")
	asm := Assembled{TraceID: strings.Repeat("ab", 16), Fragments: []Fragment{f}}
	if err := asm.Validate(); err == nil {
		t.Fatal("fragment with a different trace id must fail validation")
	}
}

func TestAssembledValidateExternalParentIsRoot(t *testing.T) {
	// A lone backend fragment whose parent hop lives in a fragment we
	// failed to fetch: still a valid (partial) trace.
	f := FragmentFromTimeline(timelineFor(tid1, pid1, "eeeeeeeeeeeeeeee"), "bgpcd")
	asm := Assembled{TraceID: tid1, Fragments: []Fragment{f}}
	if err := asm.Validate(); err != nil {
		t.Fatalf("partial trace with external parent rejected: %v", err)
	}
}

func TestRingBoundsAndLookup(t *testing.T) {
	r := NewRing(2, "bgpcd", 0, 0)
	t2 := strings.Repeat("22", 16)
	t3 := strings.Repeat("33", 16)
	r.Add(timelineFor(tid1, pid1, ""))
	r.Add(timelineFor(t2, "aaaaaaaaaaaaaaab", ""))
	r.Add(timelineFor(t3, "aaaaaaaaaaaaaaac", ""))
	if got := r.Get(tid1); len(got) != 0 {
		t.Fatalf("oldest fragment must be evicted, got %d", len(got))
	}
	if _, ok := r.Request(tid1); ok {
		t.Fatal("evicted request must not resolve by id")
	}
	if len(r.Get(t2)) != 1 || len(r.Get(t3)) != 1 {
		t.Fatal("recent fragments must be retained")
	}
	if f := r.Get(t3)[0]; f.Process != "bgpcd" || f.RequestID != t3 || len(f.Spans) != 3 {
		t.Fatalf("fragment not derived from the timeline: %+v", f)
	}
	if got := r.List(); len(got) != 2 || got[0].TraceID != t3 || got[1].TraceID != t2 {
		t.Fatalf("list must be newest first: %+v", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len=%d want 2", r.Len())
	}

	// An unkept request is retained for id lookup but never exported.
	unkept := timelineFor(tid1, pid1, "")
	unkept.Sampled = false
	r.Add(unkept)
	if _, ok := r.Request(tid1); !ok || len(r.Get(tid1)) != 0 {
		t.Fatal("unkept request must resolve by id but not by trace id")
	}
	// Filing converts nothing: the request path pays no allocation.
	if allocs := testing.AllocsPerRun(100, func() { r.Add(unkept) }); allocs != 0 {
		t.Fatalf("Add allocated %.1f per call", allocs)
	}
	bogus := timelineFor("bogus", pid1, "")
	r.Add(bogus)
	if _, ok := r.Request("bogus"); !ok || r.Get("bogus") != nil {
		t.Fatal("invalid trace ids are retained by request id but never export")
	}

	// Request goroutines file while readers list and look up.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(timelineFor(t3, "aaaaaaaaaaaaaaac", ""))
			}
		}()
	}
	for i := 0; i < 200; i++ {
		r.Get(t3)
		r.List()
		r.Request(t3)
	}
	wg.Wait()
	if got := r.Get(t3); len(got) != 2 {
		t.Fatalf("after concurrent filing Get(t3) = %d fragments, want 2", len(got))
	}
	if NewRing(0, "bgpcd", 0, 0) != nil {
		t.Fatal("NewRing(<1) must be the nil (disabled) ring")
	}
}

func TestNilHandlesAreSafeAndFree(t *testing.T) {
	var r *Ring
	var f *Flight
	r.Add(obs.Timeline{})
	if _, ok := r.Request(tid1); r.Get(tid1) != nil || ok || r.Len() != 0 || len(r.List()) != 0 {
		t.Fatal("nil ring must be empty")
	}
	if f.Trigger("x", "", nil, nil) != "" || f.Dir() != "" {
		t.Fatal("nil flight must be inert")
	}
	f.TriggerAsync("x", "", nil, nil)

	s := Sampler{KeepErrors: true, SlowNS: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Add(obs.Timeline{})
		_ = r.Get("")
		_ = f.Trigger("x", "", nil, nil)
		_ = s.Keep(false, 200, 0)
		_ = s.Head(tid1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f per run", allocs)
	}
}
