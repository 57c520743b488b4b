// Package par is a small shared-memory parallel runtime that mirrors
// the OpenMP constructs the paper's algorithms are written against:
// a parallel-for with OpenMP's dynamic (chunk self-scheduling)
// schedule, a shared concurrent work queue (ColPack's "immediate"
// next-iteration queue), lazy per-thread queues merged at a barrier
// (the paper's "64D" variant), and parallel gather/prefix-sum helpers.
//
// Thread identity is explicit: every body receives a tid in
// [0, Threads) so that callers can keep per-thread scratch state
// (forbidden-color arrays, local queues) exactly as the paper's
// implementation notes prescribe. The runtime spawns goroutines rather
// than pinning OS threads; on a machine with enough cores the Go
// scheduler maps them 1:1, and on smaller machines the algorithms still
// execute the same decision sequence, which is what the repository's
// machine-independent cost model measures.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
)

// FPDispatch is the failpoint probed once per chunk hand-out. Arming
// it with "delay:DUR" turns a worker into a straggler at chunk
// granularity; "cancel" trips the loop's Canceler (a no-op
// when the caller armed none, preserving the covering guarantee);
// "panic" exercises the worker-panic containment below. Disarmed it is
// a single atomic load on the dispatch path — the same budget as the
// obs dispatch counter.
const FPDispatch = "par.dispatch"

// WorkerPanic is the panic value a parallel loop re-raises on its
// calling goroutine when a body panics on a worker goroutine. Without
// this translation a panicking body would unwind an anonymous worker
// goroutine and kill the whole process with no chance of containment;
// with it, the panic surfaces where the loop was called, so a serving
// layer's per-job recover (internal/service's pool) can turn it into a
// structured error while the original worker stack is preserved for
// logging.
type WorkerPanic struct {
	// Tid is the logical thread that panicked.
	Tid int
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at the panic site.
	Stack []byte
}

func (w *WorkerPanic) String() string {
	return fmt.Sprintf("par: worker %d panicked: %v\n%s", w.Tid, w.Value, w.Stack)
}

// panicBox collects the first worker panic of one loop; the barrier
// re-raises it after all workers have finished, so the loop's
// completion semantics (every worker done) hold even on the panic
// path.
type panicBox struct {
	mu sync.Mutex
	p  *WorkerPanic
}

// capture must be deferred in every worker goroutine, before wg.Done
// in registration order so it runs first on unwind.
func (b *panicBox) capture(tid int) {
	if r := recover(); r != nil {
		b.mu.Lock()
		if b.p == nil {
			b.p = workerPanic(tid, r)
		}
		b.mu.Unlock()
	}
}

// workerPanic wraps a panic value recovered from a body on thread tid.
// Called from the deferred recover, it records the stack of the panic
// site.
func workerPanic(tid int, r any) *WorkerPanic {
	if wp, ok := r.(*WorkerPanic); ok {
		return wp // nested loop already wrapped it
	}
	return &WorkerPanic{Tid: tid, Value: r, Stack: debug.Stack()}
}

// rethrow re-raises the first captured panic on the caller goroutine.
func (b *panicBox) rethrow() {
	if b.p != nil {
		panic(b.p)
	}
}

// dispatchFailpoint probes FPDispatch at a chunk boundary. A cancel
// action trips cn when the caller armed a Canceler (the loop observes
// it at its next dispatch check); err actions have no channel out of a
// loop body and are deliberately ignored. Panics propagate to the
// worker's capture. Kept out of line so the disarmed path inlines as
// one load.
func dispatchFailpoint(cn *Canceler) {
	if err := failpoint.Inject(FPDispatch); err != nil && failpoint.IsCancel(err) && cn != nil {
		cn.Cancel()
	}
}

// Canceler is a cooperative cancellation flag shared between a
// context watcher and the parallel loops. The loops poll it at
// chunk-dispatch granularity — one relaxed atomic load per chunk
// hand-out, never per iteration — so arming cancellation keeps the
// per-vertex hot paths branch-free. A nil *Canceler is valid and never
// canceled, which is the default for every existing caller.
type Canceler struct {
	flag atomic.Bool
}

// NewCanceler returns an un-canceled flag.
func NewCanceler() *Canceler { return &Canceler{} }

// Cancel requests that in-flight loops stop at their next dispatch
// point. Idempotent and safe for concurrent use; nil-safe.
func (c *Canceler) Cancel() {
	if c != nil {
		c.flag.Store(true)
	}
}

// Canceled reports whether Cancel has been called. Nil-safe: a nil
// Canceler is never canceled.
func (c *Canceler) Canceled() bool {
	return c != nil && c.flag.Load()
}

// WatchContext arms c from ctx: when ctx is done, c is canceled. The
// returned stop function releases the watcher (it must be called to
// avoid holding ctx resources; deferring it is the usual pattern).
// A context with a nil Done channel installs no watcher.
func (c *Canceler) WatchContext(ctx context.Context) (stop func() bool) {
	if ctx == nil || ctx.Done() == nil {
		return func() bool { return false }
	}
	stop = context.AfterFunc(ctx, c.Cancel)
	// AfterFunc runs asynchronously even on an already-done context;
	// cancel synchronously here so a dead-on-arrival context stops the
	// caller before it does any work.
	if ctx.Err() != nil {
		c.Cancel()
	}
	return stop
}

// Options configures a parallel loop.
type Options struct {
	// Threads is the number of workers. Values < 1 mean GOMAXPROCS.
	Threads int
	// Chunk is the dynamic-schedule grain. Values < 1 mean 1, which is
	// OpenMP's default for schedule(dynamic) and deliberately expensive
	// — the paper's V-V baseline depends on it.
	Chunk int
	// Cancel, when non-nil, is polled at chunk-dispatch granularity;
	// once canceled, workers stop taking new chunks (the chunk already
	// being executed finishes). The loop then returns normally with the
	// range only partially covered — callers that armed a Canceler must
	// treat their shared state as partial.
	Cancel *Canceler
	// Stats, when non-nil, counts the loop's chunk dispatches for the
	// per-phase trace events. It observes and never steers: a loop
	// hands out the same chunks with or without it. nil — the default —
	// costs one pointer test per chunk hand-out.
	Stats *obs.LoopStats
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Threads
}

func (o Options) chunk() int {
	if o.Chunk < 1 {
		return 1
	}
	return o.Chunk
}

// For runs body(tid, lo, hi) over subranges that exactly cover [0, n),
// handing out chunks of opts.Chunk iterations from a shared atomic
// counter, first-come first-served — OpenMP schedule(dynamic,chunk).
// Each invocation's [lo, hi) is non-empty and disjoint from every other
// invocation's. It returns after all workers finish (implicit barrier).
//
// When opts.Cancel is armed and fires, the covering guarantee is
// waived: workers stop taking chunks and For returns early with part
// of the range unvisited.
func For(n int, opts Options, body func(tid, lo, hi int)) {
	if n <= 0 || opts.Cancel.Canceled() {
		return
	}
	t := opts.threads()
	if t > n {
		t = n
	}
	if t == 1 {
		if opts.Cancel == nil {
			opts.Stats.CountDispatch()
			body(0, 0, n)
		} else {
			inlineFor(n, opts, body)
		}
		return
	}
	var next atomic.Int64
	chunk, cn, st := opts.chunk(), opts.Cancel, opts.Stats
	team(t, func(tid int) { dynamicWorker(tid, n, chunk, &next, cn, st, body) })
}

// inlineFor runs a one-thread loop with a Canceler armed on the
// calling goroutine. It hands out the chunks a one-worker team
// would, with the same Canceler polls, FPDispatch probes and dispatch
// counts, and a body panic still surfaces as a *WorkerPanic; only the
// goroutine and the barrier are gone.
func inlineFor(n int, opts Options, body func(tid, lo, hi int)) {
	defer func() {
		if r := recover(); r != nil {
			panic(workerPanic(0, r))
		}
	}()
	var next atomic.Int64
	dynamicWorker(0, n, opts.chunk(), &next, opts.Cancel, opts.Stats, body)
}

// dynamicWorker is one worker of a dynamic loop: it takes chunks from
// next until the range or the loop is done.
func dynamicWorker(tid, n, chunk int, next *atomic.Int64, cn *Canceler, st *obs.LoopStats, body func(tid, lo, hi int)) {
	for {
		lo := int(next.Add(int64(chunk))) - chunk
		if lo >= n || cn.Canceled() {
			return
		}
		st.CountDispatch()
		dispatchFailpoint(cn)
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		body(tid, lo, hi)
	}
}

// team runs fn(tid) for every tid in [0, t) on its own goroutine and
// waits for all of them — OpenMP's bare parallel region, and the
// package's only goroutine-spawning site. A panic in any fn is
// re-raised on the calling goroutine as a *WorkerPanic after the
// barrier.
func team(t int, fn func(tid int)) {
	tm := &struct {
		wg  sync.WaitGroup
		box panicBox
	}{}
	tm.wg.Add(t)
	for tid := 0; tid < t; tid++ {
		go func(tid int) {
			defer tm.wg.Done()
			defer tm.box.capture(tid)
			fn(tid)
		}(tid)
	}
	tm.wg.Wait()
	tm.box.rethrow()
}
