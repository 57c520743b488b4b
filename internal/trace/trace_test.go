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
	h := Traceparent(tid1, pid1)
	if h != "00-"+tid1+"-"+pid1+"-01" {
		t.Fatalf("rendered %q", h)
	}
	tid, pid, ok := ParseTraceparent(h)
	if !ok || tid != tid1 || pid != pid1 {
		t.Fatalf("round trip lost data: %q %q %v", tid, pid, ok)
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
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed %q", h)
		}
	}
}

func TestParseTraceparentNormalizesCase(t *testing.T) {
	up := "00-" + strings.ToUpper(tid1) + "-" + strings.ToUpper(pid1) + "-01"
	tid, pid, ok := ParseTraceparent(up)
	if !ok || tid != tid1 || pid != pid1 {
		t.Fatalf("uppercase ids must parse lowercased: %q %q %v", tid, pid, ok)
	}
}

func TestParseTraceparentFutureVersionExtraFields(t *testing.T) {
	// A future version may append fields; parsing must tolerate them.
	h := "01-" + tid1 + "-" + pid1 + "-01-extrastuff"
	tid, pid, ok := ParseTraceparent(h)
	if !ok || tid != tid1 || pid != pid1 {
		t.Fatalf("future-version header rejected: %q %q %v", tid, pid, ok)
	}
}

// TestParseTraceparent is the one table for the one traceparent
// parser: what a W3C header may look like, and what must be refused.
func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
		ok   bool
	}{
		{"canonical", "00-" + tid1 + "-" + pid1 + "-01", tid1, true},
		{"unsampled flags", "00-" + tid1 + "-" + pid1 + "-00", tid1, true},
		{"surrounding space", "  00-" + tid1 + "-" + pid1 + "-01  ", tid1, true},
		{"uppercase id lowered", "00-" + strings.ToUpper(tid1) + "-" + strings.ToUpper(pid1) + "-01", tid1, true},
		{"future version", "cc-" + tid1 + "-" + pid1 + "-01", tid1, true},
		{"extra future fields", "cc-" + tid1 + "-" + pid1 + "-01-extra", tid1, true},
		{"version 00 extra fields", "00-" + tid1 + "-" + pid1 + "-01-extra", "", false},
		{"future version glued field", "cc-" + tid1 + "-" + pid1 + "-01extra", "", false},
		{"empty", "", "", false},
		{"not a traceparent", "not a traceparent at all", "", false},
		{"too few parts", "00-" + tid1 + "-01", "", false},
		{"missing flags", "00-" + tid1 + "-" + pid1, "", false},
		{"version ff reserved", "ff-" + tid1 + "-" + pid1 + "-01", "", false},
		{"non-hex version", "zz-" + tid1 + "-" + pid1 + "-01", "", false},
		{"short trace id", "00-abc123-" + pid1 + "-01", "", false},
		{"trace id one short", "00-" + tid1[:31] + "-" + pid1 + "-01", "", false},
		{"non-hex trace id", "00-" + strings.Repeat("g", 32) + "-" + pid1 + "-01", "", false},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-" + pid1 + "-01", "", false},
		{"short parent id", "00-" + tid1 + "-abc-01", "", false},
		{"all-zero parent id", "00-" + tid1 + "-0000000000000000-01", "", false},
		{"bad flags", "00-" + tid1 + "-" + pid1 + "-0x", "", false},
		{"non-hex flags", "00-" + tid1 + "-" + pid1 + "-0g", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, ok := ParseTraceparent(tc.in)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("ParseTraceparent(%q) = %q, %v; want %q, %v",
					tc.in, got, ok, tc.want, tc.ok)
			}
			// A header the parser rejects is never adopted as the id.
			if _, id, adopted := Extract(tc.in, ""); adopted != tc.ok || (tc.ok && id != tc.want) {
				t.Fatalf("Extract(%q) id = %q, adopted=%v", tc.in, id, adopted)
			}
		})
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"plain", "abc-123_XYZ.7", true},
		{"max length", strings.Repeat("a", 128), true},
		{"empty", "", false},
		{"over length", strings.Repeat("a", 129), false},
		{"embedded space", "a b", false},
		{"double quote", `a"b`, false},
		{"backslash", `a\b`, false},
		{"newline", "a\nb", false},
		{"control char", "a\x01b", false},
		{"non-ascii", "idé", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := SanitizeRequestID(tc.in)
			if ok != tc.ok {
				t.Fatalf("SanitizeRequestID(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			}
			if ok && got != tc.in {
				t.Fatalf("sanitize mutated a valid id: %q -> %q", tc.in, got)
			}
		})
	}
}

// TestExtractRequestIDPrecedence: traceparent beats X-Request-ID beats
// minting, and invalid client values fall through rather than being
// adopted.
func TestExtractRequestIDPrecedence(t *testing.T) {
	tp := Traceparent(tid1, pid1)
	if _, id, adopted := Extract(tp, "client-id"); id != tid1 || !adopted {
		t.Fatalf("traceparent did not win: %q adopted=%v", id, adopted)
	}
	if _, id, adopted := Extract("", "client-id"); id != "client-id" || !adopted {
		t.Fatalf("X-Request-ID not adopted: %q adopted=%v", id, adopted)
	}
	if _, id, adopted := Extract("garbage", `bad"id`); adopted || !ValidTraceID(id) {
		t.Fatalf("invalid headers must mint: %q adopted=%v", id, adopted)
	}
	if _, id, adopted := Extract("", ""); adopted || !ValidTraceID(id) {
		t.Fatalf("no headers must mint: %q adopted=%v", id, adopted)
	}
}

func TestExtractAdoptsInboundContext(t *testing.T) {
	// The inbound flags byte does not matter: 00 is adopted like 01.
	for _, flags := range []string{"00", "01"} {
		sc, _, _ := Extract("00-"+tid1+"-"+pid1+"-"+flags, "ignored")
		if sc.TraceID != tid1 || sc.ParentID != pid1 {
			t.Fatalf("inbound context (flags %s) not adopted: %+v", flags, sc)
		}
		if !ValidSpanID(sc.SpanID) || sc.SpanID == pid1 {
			t.Fatalf("root span id must be fresh and valid: %+v", sc)
		}
	}
}

func TestExtractStartsTraceFromFallback(t *testing.T) {
	sc, id, _ := Extract("", tid1)
	if sc.TraceID != tid1 || id != tid1 {
		t.Fatalf("a trace-shaped request id must become the trace id: %+v (id %q)", sc, id)
	}
	if sc.ParentID != "" || !ValidSpanID(sc.SpanID) {
		t.Fatalf("fresh root context wrong: %+v", sc)
	}
	// A request id without trace-id shape: a valid trace id is minted.
	sc, id, _ = Extract("", "not-a-trace-id")
	if !ValidTraceID(sc.TraceID) || id != "not-a-trace-id" {
		t.Fatalf("minted trace id invalid: %+v (id %q)", sc, id)
	}
	// Nothing from the client: the minted request id is the trace id.
	sc, id, _ = Extract("", "")
	if sc.TraceID != id || !ValidTraceID(id) {
		t.Fatalf("minted id %q must double as the trace id: %+v", id, sc)
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
		ID: tid1, TraceID: tid1, SpanID: pid1, Status: 200,
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
	r := NewRing(2, "bgpcd")
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

	// Every filed request resolves by request id and by trace id.
	r.Add(timelineFor(tid1, pid1, ""))
	if _, ok := r.Request(tid1); !ok || len(r.Get(tid1)) != 1 {
		t.Fatal("a filed request must resolve by id and by trace id")
	}
	// Filing converts nothing: the request path pays no allocation.
	filed := timelineFor(tid1, pid1, "")
	if allocs := testing.AllocsPerRun(100, func() { r.Add(filed) }); allocs != 0 {
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
}

func TestNilHandlesAreSafeAndFree(t *testing.T) {
	var f *Flight
	if f.Trigger("x", "", nil, nil) != "" || f.Dir() != "" {
		t.Fatal("nil flight must be inert")
	}
	f.TriggerAsync("x", "", nil, nil)

	allocs := testing.AllocsPerRun(1000, func() {
		_ = f.Trigger("x", "", nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled flight recorder allocated %.1f per run", allocs)
	}
}
