// Package obs is the repository's low-overhead observability layer:
// one structured trace event per phase of every speculative iteration
// (Event), sent to the Observer's pluggable Sink and to a request's
// Recorder, plus the counters, gauges and histograms of the serving
// layers exposed on /metrics (WritePrometheus).
//
// The paper's central observation — 78–89 % of BGPC runtime lives in
// the first one or two speculative iterations, and the named schedules
// trade conflict counts against phase cost — is only verifiable with
// per-phase instrumentation. The per-phase event is the kernel's only
// telemetry output, and the disabled path is essentially free: a nil
// *Observer is a valid no-op whose methods cost one branch and
// allocate nothing.
package obs

// Phase names used in Event.Phase.
const (
	PhaseColor    = "color"    // speculative (re)coloring
	PhaseConflict = "conflict" // conflict detection / removal
)

// Kind names used in Event.Kind.
const (
	KindNet    = "net"    // net-based phase (paper Algorithms 6–8, 10)
	KindVertex = "vertex" // vertex-based phase (ColPack baseline)
)

// Event is one structured trace record: a single phase of a single
// speculative iteration of a coloring run. The JSON field set is the
// trace schema; cmd/bgpcbench's golden test pins it, and
// EXPERIMENTS.md documents it. Add fields at the end and never rename
// or retype existing ones.
type Event struct {
	// Algo is the run label, typically a paper algorithm name such as
	// "N1-N2" (the Observer stamps it when empty).
	Algo string `json:"algo"`
	// Iter is the 1-based speculative iteration number.
	Iter int `json:"iter"`
	// Phase is PhaseColor or PhaseConflict.
	Phase string `json:"phase"`
	// Kind is KindNet or KindVertex.
	Kind string `json:"kind"`
	// Sched names the loop schedule; always "dynamic".
	Sched string `json:"sched"`
	// Chunk is the dynamic-scheduling grain.
	Chunk int `json:"chunk"`
	// Threads is the configured worker count.
	Threads int `json:"threads"`
	// Items is the number of work items the phase processed: queued
	// vertices for vertex-based phases, nets (or net-acting vertices in
	// D2GC) for net-based ones.
	Items int `json:"items"`
	// Conflicts is |Wnext| after a conflict-removal phase — the paper's
	// "remaining uncolored vertices" metric. Zero for coloring phases.
	Conflicts int `json:"conflicts"`
	// Colors is the number of distinct colors in use after the phase.
	Colors int `json:"colors"`
	// WallNS is the phase wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Work and MaxWork are the phase's modeled cost: total adjacency
	// cells scanned across threads, and the busiest modeled thread's
	// share (the cost-model critical path).
	Work    int64 `json:"work"`
	MaxWork int64 `json:"max_work"`
	// Dispatches is the phase's chunk-dispatch count, the paper's proxy
	// for scheduling overhead (each dispatch is a contended atomic RMW).
	Dispatches int64 `json:"dispatches"`
}

// Observer emits per-phase trace events into a Sink, synchronously at
// the end of each phase. A nil *Observer is a valid disabled observer:
// every method is nil-safe, branches out immediately, and allocates
// nothing, so runners thread an Observer unconditionally and pay only
// a pointer test when observability is off.
type Observer struct {
	sink Sink
	algo string
}

// New returns an Observer emitting into sink. A nil sink yields a nil
// (disabled) Observer.
func New(sink Sink) *Observer {
	if sink == nil {
		return nil
	}
	return &Observer{sink: sink}
}

// WithAlgo returns a copy of the Observer that stamps events with the
// given run label. Nil-safe.
func (o *Observer) WithAlgo(algo string) *Observer {
	if o == nil {
		return nil
	}
	return &Observer{sink: o.sink, algo: algo}
}

// Algo returns the configured run label ("" when nil).
func (o *Observer) Algo() string {
	if o == nil {
		return ""
	}
	return o.algo
}

// Enabled reports whether events will actually be recorded. Runners
// must consult it before assembling an Event so the disabled path does
// no work.
func (o *Observer) Enabled() bool {
	return o != nil && o.sink != nil
}

// Emit records one event, stamping the Observer's algo label when the
// event carries none. No-op on a disabled Observer.
func (o *Observer) Emit(e Event) {
	if !o.Enabled() {
		return
	}
	if e.Algo == "" {
		e.Algo = o.algo
	}
	o.sink.Emit(e)
}
