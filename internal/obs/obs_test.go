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
		"algo", "chunk", "colors", "conflicts", "dispatches", "items", "iter",
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
	if New(nil) != nil {
		t.Fatal("New(nil) must return a nil observer")
	}
}

// TestNopHotPathZeroAllocs is the acceptance-criteria allocation test:
// with no observer attached and no request recorder in the context,
// every per-event hook on the hot path must allocate nothing —
// including the Recorder/LoopStats instrumentation points, which run
// unconditionally and must stay one pointer test when disabled.
func TestNopHotPathZeroAllocs(t *testing.T) {
	var o *Observer
	var rec *Recorder
	st := rec.LoopStats() // nil: the disabled loop-stats path
	ctx := context.Background()
	ev := sampleEvent()
	allocs := testing.AllocsPerRun(1000, func() {
		if o.Enabled() {
			o.Emit(ev)
		}
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
