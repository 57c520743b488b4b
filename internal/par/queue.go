package par

import "sync/atomic"

// SharedQueue is a fixed-capacity concurrent append-only queue of
// vertex ids. It models ColPack's conflict-removal behaviour where a
// conflicting vertex is pushed immediately onto a queue shared by all
// threads (one atomic fetch-add per push). The capacity must bound the
// number of pushes; callers size it with the current work-queue length.
type SharedQueue struct {
	buf []int32
	n   atomic.Int64
}

// NewSharedQueue returns a queue that can hold up to capacity items.
func NewSharedQueue(capacity int) *SharedQueue {
	return &SharedQueue{buf: make([]int32, capacity)}
}

// Reset empties the queue without releasing its buffer.
func (q *SharedQueue) Reset() { q.n.Store(0) }

// Push appends v. It is safe for concurrent use. Push panics if the
// queue is full — by construction the algorithms never push more than
// |W| items per iteration, so overflow indicates a logic bug upstream.
func (q *SharedQueue) Push(v int32) {
	i := q.n.Add(1) - 1
	if int(i) >= len(q.buf) {
		panic("par: SharedQueue overflow")
	}
	q.buf[i] = v
}

// Len returns the number of items pushed since the last Reset.
func (q *SharedQueue) Len() int { return int(q.n.Load()) }

// Items returns the pushed items. The slice aliases the queue's buffer
// and is valid until the next Reset. The order is the arbitrary
// interleaving of concurrent pushes, matching the shared-queue variant
// in the paper.
func (q *SharedQueue) Items() []int32 { return q.buf[:q.Len()] }

// LocalQueues is a set of per-thread grow-able queues merged at a
// barrier into one slice — the paper's lazy "64D" construction. Each
// thread pushes to its own queue with zero synchronization; Merge
// concatenates them after the parallel region.
type LocalQueues struct {
	qs []localQueue
}

// localQueue is one thread's queue. Every push writes its slice header,
// so a cache line of padding keeps the next thread's header off the
// header's line.
type localQueue struct {
	items []int32
	_     [64]byte
}

// NewLocalQueues returns queues for the given number of threads, each
// with an initial capacity hint.
func NewLocalQueues(threads, capHint int) *LocalQueues {
	qs := make([]localQueue, threads)
	per := capHint / threads
	if per < 16 {
		per = 16
	}
	for i := range qs {
		qs[i].items = make([]int32, 0, per)
	}
	return &LocalQueues{qs: qs}
}

// Reset empties all per-thread queues, retaining their buffers.
func (l *LocalQueues) Reset() {
	for i := range l.qs {
		l.qs[i].items = l.qs[i].items[:0]
	}
}

// Push appends v to thread tid's queue. Each tid must be used by at
// most one goroutine at a time.
func (l *LocalQueues) Push(tid int, v int32) {
	q := &l.qs[tid]
	q.items = append(q.items, v)
}

// Len returns the total number of queued items across threads.
func (l *LocalQueues) Len() int {
	n := 0
	for _, q := range l.qs {
		n += len(q.items)
	}
	return n
}

// MergeInto concatenates all per-thread queues into dst (resized as
// needed) in thread order and returns the filled slice. Thread order
// makes the merge deterministic for a fixed execution interleaving.
func (l *LocalQueues) MergeInto(dst []int32) []int32 {
	total := l.Len()
	if cap(dst) < total {
		dst = make([]int32, total)
	}
	dst = dst[:total]
	off := 0
	for _, q := range l.qs {
		off += copy(dst[off:], q.items)
	}
	return dst
}

// ExclusiveSum computes the exclusive prefix sum of counts in place and
// returns the total. counts[i] becomes the sum of the original
// counts[0..i).
func ExclusiveSum(counts []int) int {
	sum := 0
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	return sum
}

// GatherInt32 collects, in increasing index order, every i in [0, n)
// for which pred(i) is true, using a two-pass counting scheme across
// the given number of threads. It is used to rebuild the work queue
// after a net-based conflict-removal iteration, which uncolors vertices
// in place rather than queueing them.
func GatherInt32(n int, opts Options, pred func(i int32) bool) []int32 {
	t := opts.threads()
	if t > n {
		t = n
	}
	if t <= 1 {
		var out []int32
		for i := int32(0); int(i) < n; i++ {
			if pred(i) {
				out = append(out, i)
			}
		}
		return out
	}
	counts := make([]int, t)
	// Each thread owns the contiguous block [tid*n/t, (tid+1)*n/t).
	// The gather always runs to completion (no Canceler): its two
	// passes share offset state, so a partial first pass would corrupt
	// the second. Pass 1 counts matches per block.
	team(t, func(tid int) {
		c := 0
		for i, hi := tid*n/t, (tid+1)*n/t; i < hi; i++ {
			if pred(int32(i)) {
				c++
			}
		}
		counts[tid] = c
	})
	total := ExclusiveSum(counts)
	out := make([]int32, total)
	// Pass 2: fill at precomputed offsets.
	team(t, func(tid int) {
		off := counts[tid]
		for i, hi := tid*n/t, (tid+1)*n/t; i < hi; i++ {
			if pred(int32(i)) {
				out[off] = int32(i)
				off++
			}
		}
	})
	return out
}
