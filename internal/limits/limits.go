// Package limits is the resource-governance layer for untrusted and
// oversized inputs: hard caps on what a MatrixMarket document may
// declare, per-job memory estimation from a graph's declared shape, and
// a global byte budget that admission control charges before a job is
// allowed to allocate anything.
//
// The threat model follows from the paper's cost model. The coloring
// kernels are linear in graph size, so a hostile or merely huge input
// cannot burn unbounded CPU — but it can burn unbounded memory: a
// 60-byte header claiming nnz=10^12 would make a trusting parser
// pre-allocate terabytes, and a handful of large-but-legal concurrent
// jobs can OOM a pool that only counts jobs. Everything here is about
// bytes, not cycles.
//
// Two sentinel errors separate the two rejection shapes an API maps to
// distinct status codes: ErrTooLarge (the input exceeds a hard cap or
// could never fit the budget — HTTP 413, retrying is pointless) and
// ErrBudget (the budget is momentarily exhausted — HTTP 429 with
// Retry-After, retrying is the right move).
package limits

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sync/atomic"

	"bgpc/internal/failpoint"
)

// ErrTooLarge reports input that exceeds a hard resource cap: a
// declared dimension over a ParseLimits bound, or a job whose estimated
// footprint can never fit the configured budget. Match with errors.Is.
var ErrTooLarge = errors.New("limits: input exceeds resource cap")

// ErrBudget reports that the global byte budget is momentarily
// exhausted: the job fits in principle but not right now. Match with
// errors.Is; API layers should answer with a retryable status.
var ErrBudget = errors.New("limits: memory budget exhausted")

// MaxDeltaEdges caps the length of each edge list (insert or remove) a
// delta-recoloring request may carry. A delta is meant to be small —
// that is its entire performance argument — and each edge costs a merge
// step plus dirty-set work, so a list near graph size should be a full
// recolor instead. The cap also bounds what a hostile JSON body can
// make the decoder materialize.
const MaxDeltaEdges = 1 << 20

// FPEstimate is probed on every job-size estimation. Arming it lets the
// chaos battery rehearse budget exhaustion without crafting huge
// inputs: "err" makes every estimate fail (the serving layer treats an
// unestimatable job as over budget), "delay" turns admission into a
// straggler.
const FPEstimate = "limits.estimate"

// ParseLimits caps what an untrusted MatrixMarket document may declare
// or contain. The zero value of any field means "use the default for
// that field" (see DefaultParseLimits), so callers can tighten a single
// cap without spelling out the rest.
type ParseLimits struct {
	// MaxRows / MaxCols cap the declared matrix dimensions. The CSR
	// representation indexes with int32, so values above MaxInt32 are
	// rejected regardless.
	MaxRows int
	MaxCols int
	// MaxNNZ caps the declared nonzero count (before symmetric
	// expansion).
	MaxNNZ int64
	// MaxLineBytes caps any single input line — banner, comment, size
	// line, or entry. A line that long is never a legitimate
	// coordinate-format line.
	MaxLineBytes int
}

// DefaultParseLimits returns the library-wide parser caps: permissive
// enough for every SuiteSparse matrix the paper's test-bed uses, tight
// enough that a crafted header cannot describe more than the process
// could ever represent.
func DefaultParseLimits() ParseLimits {
	return ParseLimits{
		MaxRows:      math.MaxInt32,
		MaxCols:      math.MaxInt32,
		MaxNNZ:       1 << 36, // ~64G entries ≈ 0.5 TiB of edges: beyond any in-memory target
		MaxLineBytes: 1 << 20,
	}
}

// WithDefaults fills zero-valued fields from DefaultParseLimits and
// clamps the dimension caps to int32 range.
func (l ParseLimits) WithDefaults() ParseLimits {
	def := DefaultParseLimits()
	if l.MaxRows <= 0 || l.MaxRows > math.MaxInt32 {
		l.MaxRows = def.MaxRows
	}
	if l.MaxCols <= 0 || l.MaxCols > math.MaxInt32 {
		l.MaxCols = def.MaxCols
	}
	if l.MaxNNZ <= 0 {
		l.MaxNNZ = def.MaxNNZ
	}
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = def.MaxLineBytes
	}
	return l
}

// ReadAll is io.ReadAll with its first buffer sized from declared, the
// length the source announced (an HTTP Content-Length, or -1 when
// unknown), instead of 512 bytes doubled until the body fits. The
// first buffer never exceeds max, the most the caller accepts, nor
// 64 KiB, so a lying declaration costs at most that; past it the
// buffer grows as io.ReadAll's does.
func ReadAll(r io.Reader, declared, max int64) ([]byte, error) {
	size := int64(512)
	if declared > 0 {
		// One byte past the body lets the read that returns io.EOF
		// land without a final grow.
		size = min(declared, max, 64<<10) + 1
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// Shape is the declared size of a coloring job, the inputs to its
// memory estimate. Rows are nets, Cols the vertices to color, NNZ the
// incidences before symmetric expansion.
type Shape struct {
	Rows int
	Cols int
	NNZ  int64
	// Symmetric marks matrices whose entries are expanded (symmetric /
	// skew-symmetric / hermitian MatrixMarket modes): the in-memory
	// edge count doubles.
	Symmetric bool
	// D2 marks distance-2 jobs, which additionally build the
	// undirected unipartite view of the graph.
	D2 bool
	// Threads is the per-job worker count; each worker keeps its own
	// forbidden-color scratch.
	Threads int
}

// Estimate returns the job's estimated peak footprint in bytes. It is
// EstimateBytes behind the FPEstimate failpoint: an injected fault
// makes the job unestimatable, which admission treats as over budget.
func Estimate(sh Shape) (int64, error) {
	if err := failpoint.Inject(FPEstimate); err != nil {
		return 0, fmt.Errorf("%w: injected estimation fault: %v", ErrBudget, err)
	}
	return EstimateBytes(sh), nil
}

// EstimateBytes computes the deliberate over-approximation of a job's
// peak memory from its declared shape, term by term:
//
//   - parse staging: the edge list scanned from the input, with the 2×
//     slack append-style geometric growth can leave behind
//   - dual CSR: net-major and vertex-major ptr/adj arrays plus the
//     counting-sort fill scratch (see bipartite.FromEdges)
//   - runtime state: the color array, the work queues (≈ 2 vertex-sized
//     int32 arrays), and one forbidden-color scratch array per thread,
//     each bounded by the number of vertices
//   - D2 jobs double the graph term for the undirected view
//   - the coloring kernel's net color masks (MaskBytes)
//
// All arithmetic saturates at MaxInt64 so hostile shapes cannot
// overflow their way under a budget. The result errs high by design —
// admission control wants an upper bound, not an expectation.
func EstimateBytes(sh Shape) int64 {
	rows, cols := int64(sh.Rows), int64(sh.Cols)
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	e := sh.NNZ
	if e < 0 {
		e = 0
	}
	if sh.Symmetric {
		e = satMul(e, 2)
	}

	const (
		edgeBytes  = 8 // bipartite.Edge: two int32
		ptrBytes   = 8 // CSR offsets: int64
		adjBytes   = 4 // adjacency ids: int32
		colorBytes = 4 // color ids: int32
	)

	staging := satMul(e, 2*edgeBytes)
	csr := satAdd(
		satAdd(satMul(rows+1, ptrBytes), satMul(cols+1, ptrBytes)),
		satMul(e, 2*adjBytes),
	)
	fill := satAdd(satMul(rows, ptrBytes), satMul(cols, ptrBytes))
	graph := satAdd(csr, fill)
	if sh.D2 {
		graph = satMul(graph, 2)
	}

	threads := int64(sh.Threads)
	if threads < 1 {
		threads = 1
	}
	runState := satAdd(satMul(cols, 3*colorBytes), satMul(satMul(threads, cols), colorBytes))

	return satAdd(satAdd(staging, graph), satAdd(runState, MaskBytes(sh)))
}

// MaskBytes bounds the color masks the coloring kernel keeps for the
// nets of at least 32 vertices (internal/core, masks.go), term by term:
//
//   - mask words: capped at one 8-byte word per 4 nonzeros
//   - a 4-byte row index per net, and a 4-byte list of the masked nets,
//     at most one per 32 nonzeros
//   - a table of 24-byte slice headers, one per 64 colors, and colors
//     are fewer than Cols+1
//   - per thread, a buffer of a vertex's masked nets: a 4-byte slot per
//     masked net plus a 64-byte cache line of slack, and its slice
//     header padded by another cache line (88 bytes)
//   - a 4-byte flag per vertex (Cols), which marks both the vertices
//     conflict detection flags and the queued vertices of a recoloring
//     phase, each under its own stamp
//   - for a recoloring phase after a vertex-based conflict removal, an
//     8-byte offset per masked net plus one, and a list of each masked
//     net's queued members: at most one 4-byte entry per incidence of
//     a queued vertex, so per nonzero
//
// The masks are pooled between jobs, so a pooled set also outlives its
// job, up to the largest job's bound.
func MaskBytes(sh Shape) int64 {
	rows, cols, e := max(int64(sh.Rows), 0), max(int64(sh.Cols), 0), max(sh.NNZ, 0)
	if sh.Symmetric {
		e = satMul(e, 2)
	}
	threads := max(int64(sh.Threads), 1)
	words := satMul(e/4, 8)
	index := satAdd(satMul(rows, 4), satMul(e/32, 4))
	table := satMul(cols/64+2, 24)
	buffers := satMul(threads, satAdd(satMul(e/32, 4), 64+88))
	flags := satMul(cols, 4)
	members := satAdd(satMul(e/32+1, 8), satMul(e, 4))
	return satAdd(satAdd(satAdd(words, index), satAdd(table, buffers)), satAdd(flags, members))
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Budget is a global byte budget shared by concurrently admitted jobs.
// A nil *Budget admits everything — the disabled configuration — so
// callers thread it without nil checks. Acquire/Release are lock-free
// (a CAS loop on the in-flight gauge); admission paths call them
// per-request, not per-vertex.
type Budget struct {
	capacity int64
	inflight atomic.Int64
}

// NewBudget returns a budget of capacity bytes; capacity <= 0 returns
// nil (unlimited).
func NewBudget(capacity int64) *Budget {
	if capacity <= 0 {
		return nil
	}
	return &Budget{capacity: capacity}
}

// TryAcquire reserves n bytes. It fails with ErrTooLarge when n alone
// exceeds the capacity (no amount of retrying helps) and with ErrBudget
// when the reservation does not fit right now (retry after releases).
func (b *Budget) TryAcquire(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	if n > b.capacity {
		return fmt.Errorf("%w: job needs ~%d bytes, budget is %d", ErrTooLarge, n, b.capacity)
	}
	for {
		cur := b.inflight.Load()
		if cur+n > b.capacity {
			return fmt.Errorf("%w: %d of %d bytes in flight, job needs ~%d more", ErrBudget, cur, b.capacity, n)
		}
		if b.inflight.CompareAndSwap(cur, cur+n) {
			return nil
		}
	}
}

// Release returns n bytes reserved by a successful TryAcquire.
func (b *Budget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	if after := b.inflight.Add(-n); after < 0 {
		// An unmatched release is an accounting bug; clamp rather than
		// let the gauge go negative and over-admit forever.
		b.inflight.Store(0)
	}
}

// InFlight reports the bytes currently reserved (the svc_bytes_inflight
// gauge). Nil budgets report 0.
func (b *Budget) InFlight() int64 {
	if b == nil {
		return 0
	}
	return b.inflight.Load()
}

// Capacity reports the budget's total bytes; 0 for a nil (unlimited)
// budget.
func (b *Budget) Capacity() int64 {
	if b == nil {
		return 0
	}
	return b.capacity
}

// DefaultBudgetBytes derives a byte budget from the runtime's memory
// limit: half of GOMEMLIMIT when one is set (the other half is
// headroom for the heap the estimator cannot see — caches, HTTP
// buffers, GC slack), 0 (unlimited) when the limit is unset. Callers
// pass the result to NewBudget so a daemon run under GOMEMLIMIT gets
// byte-accurate admission control with no extra flags.
func DefaultBudgetBytes() int64 {
	lim := debug.SetMemoryLimit(-1) // negative: read without changing
	if lim <= 0 || lim == math.MaxInt64 {
		return 0
	}
	return lim / 2
}
