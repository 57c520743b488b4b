package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func coverageCheck(t *testing.T, n int, opts Options) {
	t.Helper()
	touched := make([]atomic.Int32, n)
	For(n, opts, func(tid, lo, hi int) {
		if lo >= hi {
			t.Errorf("empty range [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			touched[i].Add(1)
		}
	})
	for i := range touched {
		if got := touched[i].Load(); got != 1 {
			t.Fatalf("index %d touched %d times (n=%d opts=%+v)", i, got, n, opts)
		}
	}
}

func TestForCoversExactlyOnceDynamic(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000, 4097} {
		for _, threads := range []int{1, 2, 4, 16} {
			for _, chunk := range []int{1, 3, 64, 5000} {
				coverageCheck(t, n, Options{Threads: threads, Chunk: chunk})
			}
		}
	}
}

func TestForZeroOrNegativeN(t *testing.T) {
	called := false
	For(0, Options{Threads: 4}, func(tid, lo, hi int) { called = true })
	For(-5, Options{Threads: 4}, func(tid, lo, hi int) { called = true })
	if called {
		t.Fatal("body invoked for empty range")
	}
}

func TestForTidRange(t *testing.T) {
	opts := Options{Threads: 8, Chunk: 1}
	For(100, opts, func(tid, lo, hi int) {
		if tid < 0 || tid >= 8 {
			t.Errorf("tid %d out of range", tid)
		}
	})
}

func TestForDefaultsThreadsToGOMAXPROCS(t *testing.T) {
	// Threads <= 0 must still execute correctly.
	coverageCheck(t, 100, Options{Threads: 0})
	coverageCheck(t, 100, Options{Threads: -3})
}

func TestForPropertySum(t *testing.T) {
	check := func(nRaw uint16, threadsRaw, chunkRaw uint8) bool {
		n := int(nRaw)%2000 + 1
		threads := int(threadsRaw)%16 + 1
		chunk := int(chunkRaw)%128 + 1
		var sum atomic.Int64
		For(n, Options{Threads: threads, Chunk: chunk}, func(tid, lo, hi int) {
			local := int64(0)
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		want := int64(n) * int64(n-1) / 2
		return sum.Load() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedQueueConcurrentPush(t *testing.T) {
	q := NewSharedQueue(10000)
	For(8, Options{Threads: 8}, func(tid, lo, hi int) {
		for k := lo; k < hi; k++ {
			for i := 0; i < 1000; i++ {
				q.Push(int32(k*1000 + i))
			}
		}
	})
	if q.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", q.Len())
	}
	seen := make(map[int32]bool, 8000)
	for _, v := range q.Items() {
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestSharedQueueReset(t *testing.T) {
	q := NewSharedQueue(4)
	q.Push(1)
	q.Push(2)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	q.Push(9)
	if got := q.Items(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("Items after Reset+Push = %v", got)
	}
}

func TestSharedQueueOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	q := NewSharedQueue(1)
	q.Push(1)
	q.Push(2)
}

func TestLocalQueuesMerge(t *testing.T) {
	l := NewLocalQueues(3, 0)
	l.Push(0, 10)
	l.Push(2, 30)
	l.Push(1, 20)
	l.Push(0, 11)
	got := l.MergeInto(nil)
	want := []int32{10, 11, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestLocalQueuesReset(t *testing.T) {
	l := NewLocalQueues(2, 8)
	l.Push(0, 1)
	l.Push(1, 2)
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len after Reset = %d", l.Len())
	}
	if got := l.MergeInto(nil); len(got) != 0 {
		t.Fatalf("MergeInto after Reset = %v", got)
	}
}

func TestLocalQueuesMergeReusesDst(t *testing.T) {
	l := NewLocalQueues(2, 4)
	l.Push(0, 5)
	l.Push(1, 6)
	dst := make([]int32, 0, 16)
	got := l.MergeInto(dst)
	if len(got) != 2 || cap(got) != 16 {
		t.Fatalf("MergeInto did not reuse dst: len=%d cap=%d", len(got), cap(got))
	}
}

func TestExclusiveSum(t *testing.T) {
	counts := []int{3, 0, 2, 5}
	total := ExclusiveSum(counts)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := []int{0, 3, 3, 5}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestExclusiveSumEmpty(t *testing.T) {
	if total := ExclusiveSum(nil); total != 0 {
		t.Fatalf("total = %d", total)
	}
}

func TestGatherInt32(t *testing.T) {
	for _, threads := range []int{1, 2, 7} {
		got := GatherInt32(100, Options{Threads: threads}, func(i int32) bool { return i%3 == 0 })
		if len(got) != 34 {
			t.Fatalf("threads=%d: len = %d, want 34", threads, len(got))
		}
		for k, v := range got {
			if v != int32(3*k) {
				t.Fatalf("threads=%d: got[%d] = %d, want %d (order must be ascending)", threads, k, v, 3*k)
			}
		}
	}
}

// TestGatherInt32CoversExactlyOnce: GatherInt32's contiguous blocks
// cover [0, n) exactly once for any thread count, including more
// threads than indices.
func TestGatherInt32CoversExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 5, 16, 1023} {
		for _, threads := range []int{1, 2, 3, 8, 32} {
			touched := make([]atomic.Int32, n)
			got := GatherInt32(n, Options{Threads: threads}, func(i int32) bool {
				touched[i].Add(1)
				return true
			})
			// The predicate runs once per index in each of the two passes.
			passes := int32(2)
			if threads == 1 || n == 1 {
				passes = 1
			}
			for i := range touched {
				if c := touched[i].Load(); c != passes {
					t.Fatalf("n=%d threads=%d: index %d visited %d times, want %d", n, threads, i, c, passes)
				}
			}
			if len(got) != n {
				t.Fatalf("n=%d threads=%d: gathered %d indices", n, threads, len(got))
			}
			for i, v := range got {
				if v != int32(i) {
					t.Fatalf("n=%d threads=%d: got[%d] = %d", n, threads, i, v)
				}
			}
		}
	}
}

func TestGatherInt32Empty(t *testing.T) {
	got := GatherInt32(50, Options{Threads: 4}, func(i int32) bool { return false })
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestGatherInt32All(t *testing.T) {
	got := GatherInt32(10, Options{Threads: 3}, func(i int32) bool { return true })
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("got = %v", got)
		}
	}
}

func BenchmarkForDynamicChunk1(b *testing.B) {
	benchFor(b, Options{Threads: 4, Chunk: 1})
}

func BenchmarkForDynamicChunk64(b *testing.B) {
	benchFor(b, Options{Threads: 4, Chunk: 64})
}

func benchFor(b *testing.B, opts Options) {
	data := make([]int64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(len(data), opts, func(tid, lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j]++
			}
		})
	}
}
