package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleEvent() Event {
	return Event{
		Algo: "N1-N2", Iter: 1, Phase: PhaseColor, Kind: KindNet,
		Sched: "dynamic", Chunk: 64, Threads: 4,
		Items: 100, Conflicts: 0, Colors: 7,
		WallNS: 1234, Work: 500, MaxWork: 130,
	}
}

func TestJSONLSinkEncodesSchema(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(sampleEvent())
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, line)
	}
	want := []string{
		"algo", "chunk", "colors", "conflicts", "items", "iter",
		"kind", "max_work", "phase", "sched", "threads", "wall_ns", "work",
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("schema drift:\n got  %v\n want %v", got, want)
	}
}

// eventSink collects every event it is sent, in order.
type eventSink struct {
	mu  sync.Mutex
	evs []Event
}

func (s *eventSink) Emit(e Event) {
	s.mu.Lock()
	s.evs = append(s.evs, e)
	s.mu.Unlock()
}

func TestObserverStampsAlgo(t *testing.T) {
	sink := &eventSink{}
	o := New(sink).WithAlgo("V-V-64")
	e := sampleEvent()
	e.Algo = ""
	o.Emit(e)
	explicit := sampleEvent() // carries its own algo label
	o.Emit(explicit)
	evs := sink.evs
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Algo != "V-V-64" {
		t.Fatalf("empty algo not stamped: %q", evs[0].Algo)
	}
	if evs[1].Algo != "N1-N2" {
		t.Fatalf("explicit algo overwritten: %q", evs[1].Algo)
	}
}

func TestNilObserverIsSafeNoop(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer enabled")
	}
	o.Emit(sampleEvent()) // must not panic
	if o.WithAlgo("x") != nil {
		t.Fatal("WithAlgo on nil must stay nil")
	}
	if o.Algo() != "" {
		t.Fatal("nil Algo not empty")
	}
	ran := false
	o.Phase(1, PhaseColor, KindNet, func() { ran = true })
	if !ran {
		t.Fatal("Phase did not call fn on nil observer")
	}
	if New(nil) != nil {
		t.Fatal("New(nil) must return a nil observer")
	}
}

func TestEnabledObserverPhaseRunsFn(t *testing.T) {
	o := New(Discard)
	ran := false
	o.Phase(2, PhaseConflict, KindVertex, func() { ran = true })
	if !ran {
		t.Fatal("Phase did not call fn")
	}
}

// TestNopHotPathZeroAllocs is the acceptance-criteria allocation test:
// with no observer attached, no request recorder in the context, and
// metrics off, every per-event hook on the hot path must allocate
// nothing — including the Recorder/LoopStats instrumentation points,
// which run unconditionally and must stay one pointer test when
// disabled.
func TestNopHotPathZeroAllocs(t *testing.T) {
	EnableMetrics(false)
	var o *Observer
	var rec *Recorder
	st := rec.LoopStats() // nil: the disabled loop-stats path
	ctx := context.Background()
	ev := sampleEvent()
	allocs := testing.AllocsPerRun(1000, func() {
		if o.Enabled() {
			o.Emit(ev)
		}
		CountDispatch()
		CountQueuePush()
		CountForbiddenScans(64)
		if r := RecorderFromContext(ctx); r != nil {
			t.Fatal("unexpected recorder")
		}
		sp := rec.StartSpanKind("phase", "")
		sp.End()
		sp2 := rec.StartSpanKind("phase", "queue")
		sp2.End()
		rec.AddSpanKind("phase", "queue", time.Time{}, 0)
		rec.AddSpanFull("", "phase", "queue", time.Time{}, 0, nil)
		rec.SetTraceContext("", "", "")
		if rec.TraceID() != "" {
			t.Fatal("nil recorder must report an empty trace context")
		}
		rec.Emit(ev)
		rec.Annotate("k", "v")
		st.CountDispatch()
		_ = st.TakeDispatches()
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f per run", allocs)
	}
}

// TestEnabledCountersZeroAllocs: even with metrics on, counting must
// not allocate — it is on the chunk-dispatch path.
func TestEnabledCountersZeroAllocs(t *testing.T) {
	EnableMetrics(true)
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	allocs := testing.AllocsPerRun(1000, func() {
		CountDispatch()
		CountQueuePush()
		CountForbiddenScans(64)
	})
	if allocs != 0 {
		t.Fatalf("enabled counters allocated %.1f per run", allocs)
	}
}

func TestCountersGatedByEnableMetrics(t *testing.T) {
	ResetMetrics()
	EnableMetrics(false)
	CountDispatch()
	CountQueuePush()
	CountForbiddenScans(10)
	for name, v := range Snapshot() {
		if v != 0 {
			t.Fatalf("%s counted %d while disabled", name, v)
		}
	}
	EnableMetrics(true)
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	CountDispatch()
	CountDispatch()
	CountQueuePush()
	CountForbiddenScans(10)
	snap := Snapshot()
	if snap["bgpc.chunk_dispatches"] != 2 {
		t.Fatalf("dispatches = %d", snap["bgpc.chunk_dispatches"])
	}
	if snap["bgpc.shared_queue_pushes"] != 1 {
		t.Fatalf("pushes = %d", snap["bgpc.shared_queue_pushes"])
	}
	if snap["bgpc.forbidden_scans"] != 10 {
		t.Fatalf("scans = %d", snap["bgpc.forbidden_scans"])
	}
}

func TestWriteMetricsStableFormat(t *testing.T) {
	ResetMetrics()
	EnableMetrics(true)
	CountDispatch()
	EnableMetrics(false)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// One line per counter plus one per registered gauge — the unified
	// metrics surface.
	if want := len(Snapshot()) + len(GaugeSnapshot()); len(lines) != want {
		t.Fatalf("got %d lines, want %d: %q", len(lines), want, buf.String())
	}
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("lines not sorted: %q", lines)
	}
	found := false
	for _, l := range lines {
		if l == "bgpc.chunk_dispatches 1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing counter line in %q", lines)
	}
	ResetMetrics()
}
