package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// mold: Observe finds the first bucket whose upper bound is ≥ v and
// increments it atomically, along with a running sum and count. All
// state is lock-free atomics, so Observe is safe on request paths under
// arbitrary concurrency and Snapshot never blocks an observer.
//
// Buckets are upper bounds, ascending; an implicit +Inf bucket catches
// the overflow. Snapshots report cumulative counts (each bucket
// includes everything below it), which is the exposition format's
// `le` contract and what p50/p99 interpolation consumes.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
}

// NewHistogram returns a histogram with the given upper bounds, which
// must be sorted ascending (duplicates and an explicit +Inf are
// tolerated and ignored). name/help feed the Prometheus exposition.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	bs := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if math.IsInf(b, +1) {
			continue
		}
		if len(bs) > 0 && b <= bs[len(bs)-1] {
			continue
		}
		bs = append(bs, b)
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1),
	}
}

// Name returns the histogram's exposition name.
func (h *Histogram) Name() string { return h.name }

// Bounds returns the configured upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Observe records one value. NaN observations are dropped (they would
// poison the sum); -Inf lands in the first bucket, +Inf in the last.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Binary search for the first bound ≥ v: buckets are `le` —
	// inclusive upper bounds — so a value exactly on a boundary counts
	// in that boundary's bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// HistSnapshot is a consistent-enough view of a histogram: cumulative
// bucket counts aligned with Bounds() plus the +Inf bucket, the total
// count, and the value sum. Taken without locks, so under concurrent
// Observe traffic the parts may be skewed by in-flight updates — fine
// for monitoring, by design.
type HistSnapshot struct {
	Bounds  []float64 // upper bounds, +Inf excluded
	Buckets []int64   // cumulative; len(Bounds)+1, last is +Inf
	Count   int64
	Sum     float64
}

// Snapshot returns the histogram's current cumulative state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.counts)),
		Sum:     math.Float64frombits(h.sum.Load()),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Buckets[i] = cum
	}
	// Count derives from the buckets so the exposition invariant
	// (+Inf bucket == _count) holds by construction, even under
	// concurrent Observe traffic.
	s.Count = cum
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// distribution with linear interpolation inside the winning bucket —
// the same estimate Prometheus's histogram_quantile computes, usable
// directly from a scrape or a test. Returns NaN on an empty histogram
// or an out-of-range (or NaN) q; observations beyond the last finite
// bound clamp to it.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	idx := sort.Search(len(s.Buckets), func(i int) bool {
		return float64(s.Buckets[i]) >= rank
	})
	if idx >= len(s.Bounds) {
		// +Inf bucket: no finite upper bound to interpolate toward.
		if len(s.Bounds) == 0 {
			return math.NaN()
		}
		return s.Bounds[len(s.Bounds)-1]
	}
	lo, cumLo := 0.0, int64(0)
	if idx > 0 {
		lo, cumLo = s.Bounds[idx-1], s.Buckets[idx-1]
	}
	hi, cumHi := s.Bounds[idx], s.Buckets[idx]
	if cumHi == cumLo {
		return hi
	}
	return lo + (hi-lo)*(rank-float64(cumLo))/float64(cumHi-cumLo)
}

// HistogramVec is a family of histograms split by one label (the
// daemon labels by algorithm variant). Label lookup takes an RWMutex
// read lock — request-path cost, never per-vertex — and unseen labels
// allocate their histogram on first use.
type HistogramVec struct {
	name, help, label string
	bounds            []float64

	mu sync.RWMutex
	m  map[string]*Histogram
}

// NewHistogramVec returns a labeled histogram family.
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{
		name:   name,
		help:   help,
		label:  label,
		bounds: bounds,
		m:      make(map[string]*Histogram),
	}
}

// Name returns the family's exposition name.
func (v *HistogramVec) Name() string { return v.name }

// With returns the histogram for the given label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.m[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.m[value]; h == nil {
		h = NewHistogram(v.name, v.help, v.bounds)
		v.m[value] = h
	}
	return h
}

// labels returns the known label values, sorted — the exposition
// order.
func (v *HistogramVec) labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.m))
	for k := range v.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reset drops every labeled histogram (tests).
func (v *HistogramVec) Reset() {
	v.mu.Lock()
	v.m = make(map[string]*Histogram)
	v.mu.Unlock()
}

// LatencyBuckets is the default latency bucket layout (seconds):
// half-millisecond floor to 30 s ceiling in roughly 1-2.5-5 steps,
// covering both the paper's sub-millisecond kernels and a daemon's
// deadline-bound tail.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// SizeBuckets is the default byte-size bucket layout: powers of four
// from 4 KiB to 4 GiB.
var SizeBuckets = []float64{
	4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
	1 << 30, 4 << 30,
}

// The daemon's request-path histograms. Like the svc_* counters they
// are observed unconditionally — these sit on request completions, not
// per-vertex paths, so a daemon can always answer "how long".
var (
	// SvcLatency is end-to-end POST /color latency (admission to
	// response write), labeled by algorithm variant.
	SvcLatency = NewHistogramVec("bgpc_svc_latency_seconds",
		"End-to-end coloring request latency by algorithm variant.",
		"variant", LatencyBuckets)
	// SvcQueueWait is time from admission to worker pickup — the
	// backpressure component of latency a client can act on.
	SvcQueueWait = NewHistogram("bgpc_svc_queue_wait_seconds",
		"Time jobs spent admitted but not yet running.", LatencyBuckets)
	// SvcColorPhase / SvcConflictPhase are the per-request totals of
	// the two paper phases, labeled by variant: the "78-89% of runtime
	// in the first rounds" claim, measurable per deployment.
	SvcColorPhase = NewHistogramVec("bgpc_svc_color_phase_seconds",
		"Total speculative-coloring phase time per request by algorithm variant.",
		"variant", LatencyBuckets)
	SvcConflictPhase = NewHistogramVec("bgpc_svc_conflict_phase_seconds",
		"Total conflict-removal phase time per request by algorithm variant.",
		"variant", LatencyBuckets)
	// SvcJobBytes is the estimated per-job memory footprint at
	// admission (the byte dimension of admission control).
	SvcJobBytes = NewHistogram("bgpc_svc_job_bytes",
		"Estimated job memory footprint at admission.", SizeBuckets)
	// WalAppendSeconds is the time one accepted coloring or delta spent
	// in the WAL append path (encode + write + policy fsync) — the
	// durability tax on the accept path, directly comparable across
	// fsync policies.
	WalAppendSeconds = NewHistogram("bgpc_wal_append_seconds",
		"Write-ahead-log append latency (encode, write, policy fsync).", LatencyBuckets)
	// WalSyncSeconds is the fsync cost itself, one observation per
	// fsync counted by WalSyncs.
	WalSyncSeconds = NewHistogram("bgpc_wal_sync_seconds",
		"Write-ahead-log fsync latency per sync batch or sealed segment.", LatencyBuckets)
	// WalSnapshotSeconds is one snapshot compaction from the seal of
	// the active segment to the install of the snapshot, one
	// observation per installed snapshot. Appends wait on it only while
	// the segment is sealed and the snapshot installed, so
	// bgpc_wal_append_seconds does not include it.
	WalSnapshotSeconds = NewHistogram("bgpc_wal_snapshot_seconds",
		"Write-ahead-log snapshot compaction time, seal to install.", LatencyBuckets)
)

// histogramFamilies returns every registered histogram family in
// exposition order. Plain histograms are families of one with no
// label.
func histogramFamilies() []histFamily {
	return []histFamily{
		{vec: SvcColorPhase},
		{vec: SvcConflictPhase},
		{h: SvcJobBytes},
		{vec: SvcLatency},
		{h: SvcQueueWait},
		{h: WalAppendSeconds},
		{h: WalSnapshotSeconds},
		{h: WalSyncSeconds},
	}
}

// histFamily is either one unlabeled histogram or a labeled vec.
type histFamily struct {
	h   *Histogram
	vec *HistogramVec
}

// ResetHistograms zeroes every registered histogram family (tests),
// mirroring ResetMetrics for counters.
func ResetHistograms() {
	for _, f := range histogramFamilies() {
		if f.vec != nil {
			f.vec.Reset()
			continue
		}
		// Replace the atomic state in place: Histogram has no Reset to
		// keep the observe path free of generation checks, so swap the
		// counters instead.
		for i := range f.h.counts {
			f.h.counts[i].Store(0)
		}
		f.h.sum.Store(0)
	}
}
