package core

import (
	"sync"
	"time"
)

// Cost-model constants: the work model measures adjacency cells
// scanned (≈ one cache access each). Scheduling actions are charged in
// the same currency so the model separates the paper's scheduling
// variants. A dynamic-chunk hand-out and a shared-queue push are
// contended atomic RMWs: their expected cost grows linearly with the
// number of contending threads (the cache line bounces once per
// contender), so phases charge BaseCost × threads per event. Lazy
// per-thread queue pushes are plain appends and are charged nothing.
const (
	// DispatchCostUnits is the modeled per-contender cost of one
	// dynamic-schedule chunk hand-out; a phase charges
	// DispatchCostUnits × threads to the grabbing thread.
	DispatchCostUnits = 4
	// queuePushCostUnits is the modeled per-contender cost of one push
	// into the shared (non-lazy) conflict queue.
	queuePushCostUnits = 4
)

// WorkCounters models the per-thread work distribution of one phase
// for the machine-independent cost model. Finished chunks report their
// work via AddChunk, which charges the currently least-loaded modeled
// thread — the greedy assignment that dynamic chunk self-scheduling
// approximates. Charging by *modeled* thread rather than by the
// executing goroutine keeps the model meaningful on machines with
// fewer cores than Options.Threads (a single-core host would otherwise
// let one goroutine drain every chunk and collapse the critical path
// to the total work).
//
// The counters also carry the dispatch frontier of the run's first
// vertex coloring phase: like them, it is per-run state that every
// chunk of a phase writes.
type WorkCounters struct {
	mu       sync.Mutex
	c        []paddedInt64
	frontier dispatchFrontier
}

type paddedInt64 struct {
	v int64
	_ [7]int64
}

// NewWorkCounters returns counters modeling the given thread count.
func NewWorkCounters(threads int) *WorkCounters {
	return &WorkCounters{c: make([]paddedInt64, threads)}
}

// AddChunk charges one finished chunk's work to the least-loaded
// modeled thread. Safe for concurrent use; chunk granularity keeps the
// lock cold.
func (w *WorkCounters) AddChunk(units int64) {
	w.mu.Lock()
	minIdx := 0
	for i := 1; i < len(w.c); i++ {
		if w.c[i].v < w.c[minIdx].v {
			minIdx = i
		}
	}
	w.c[minIdx].v += units
	w.mu.Unlock()
}

// TotalAndMax returns the summed work and the busiest thread's work,
// then clears the counters for the next phase.
func (w *WorkCounters) TotalAndMax() (total, maxThread int64) {
	for i := range w.c {
		v := w.c[i].v
		total += v
		if v > maxThread {
			maxThread = v
		}
		w.c[i].v = 0
	}
	return total, maxThread
}

// IterStats records one speculative iteration of the main loop,
// powering the Figure 1 and Table I reproductions.
type IterStats struct {
	// QueueLen is |W| entering the iteration (for net-based coloring
	// iterations this is the number of uncolored vertices).
	QueueLen int
	// NetColoring / NetCR report which phase flavour ran.
	NetColoring bool
	NetCR       bool
	// Wall-clock time per phase.
	ColoringTime time.Duration
	ConflictTime time.Duration
	// Work units (adjacency cells scanned) per phase: total across
	// threads and the busiest single thread (the cost-model critical
	// path).
	ColoringWork    int64
	ColoringMaxWork int64
	ConflictWork    int64
	ConflictMaxWork int64
	// Conflicts is |Wnext| leaving the iteration — the paper's
	// "remaining uncolored vertices" metric (Table I).
	Conflicts int
}

// Result is the outcome of one BGPC (or D2GC) run.
type Result struct {
	// Colors holds the final color of every vertex; all entries are
	// non-negative on success.
	Colors []int32
	// NumColors is the number of distinct colors used.
	NumColors int
	// MaxColor is the largest color id used (NumColors−1 when the color
	// ids are contiguous; reverse first-fit can leave gaps).
	MaxColor int32
	// Iterations is the number of speculative rounds executed
	// (1 for the sequential algorithm).
	Iterations int
	// Time is total wall-clock; ColoringTime/ConflictTime split it by
	// phase (they exclude queue management, so they may not sum to
	// Time exactly).
	Time         time.Duration
	ColoringTime time.Duration
	ConflictTime time.Duration
	// TotalWork is the summed work units of all phases across threads;
	// CriticalWork sums each phase's busiest-thread work. Their ratio
	// against the sequential baseline's TotalWork gives the
	// machine-independent speedup model (see internal/bench).
	TotalWork    int64
	CriticalWork int64
	// Iters holds per-iteration details when requested via
	// Options.CollectPerIteration.
	Iters []IterStats
}

// countColors fills NumColors and MaxColor from Colors, stamping the
// colors into f, an idle forbidden set.
func (r *Result) countColors(f *Forbidden) {
	r.MaxColor = -1
	for _, c := range r.Colors {
		r.MaxColor = max(r.MaxColor, c)
	}
	r.NumColors = distinctColors(r.Colors, f)
}

// distinctColors counts the distinct colors in colors by stamping them
// into f, whose epoch it discards. The runner passes thread 0's
// forbidden set, which is idle between phases, when no thread writes
// colors.
func distinctColors(colors []int32, f *Forbidden) int {
	f.Reset()
	n := 0
	for _, col := range colors {
		if col >= 0 && !f.Has(col) {
			f.Add(col)
			n++
		}
	}
	return n
}
