// Package core implements the paper's bipartite-graph partial coloring
// (BGPC) algorithms: the sequential greedy baseline, ColPack's
// vertex-based speculative loop with the paper's scheduling fixes
// (chunked dynamic scheduling, lazy queues), the proposed net-based
// coloring and conflict-removal phases with the reverse first-fit
// Policy, the hybrid V-N/N-N schedules, and the B1/B2 balancing
// heuristics (paper Algorithms 1–8, 11, 12).
package core

import (
	"math"
	"sync/atomic"

	"bgpc/internal/bipartite"
)

// Uncolored is the color of a not-yet-colored vertex, as in the paper.
const Uncolored int32 = -1

// Colors is a shared color array. The speculative phases intentionally
// let threads overwrite each other's entries ("optimistic" coloring);
// all access from parallel code goes through atomic Get/Set so the
// library stays race-detector-clean while preserving that optimism.
// Sequential code may use Raw directly.
type Colors struct {
	c []int32
}

// NewColors returns an all-Uncolored array for n vertices.
func NewColors(n int) *Colors {
	c := make([]int32, n)
	for i := range c {
		c[i] = Uncolored
	}
	return &Colors{c: c}
}

// Len returns the number of vertices.
func (c *Colors) Len() int { return len(c.c) }

// Get atomically loads vertex u's color.
func (c *Colors) Get(u int32) int32 { return atomic.LoadInt32(&c.c[u]) }

// Set atomically stores vertex u's color.
func (c *Colors) Set(u int32, col int32) { atomic.StoreInt32(&c.c[u], col) }

// Raw returns the underlying slice. Callers must not access it
// concurrently with parallel phases.
func (c *Colors) Raw() []int32 { return c.c }

// Forbidden is a per-thread forbidden-color set realized as a stamped
// array, following the paper's implementation notes: it is allocated
// once, never cleared, and reset in O(1) by bumping the stamp. Color c
// lives in slot c+1; slot 0 belongs to Uncolored, which no color query
// reads, so the distance-2 scans add every neighbour's color without
// testing it for Uncolored first.
type Forbidden struct {
	mark  []int32
	stamp int32
}

// cacheLine is the cache line size the per-thread layout assumes, that
// of x86-64 and of most arm64 cores.
const cacheLine = 64

// lineSlots is one cache line of int32 slots. A per-thread array that
// the kernel writes is allocated with this much slack past its end, so
// that another thread's array allocated right after it never shares the
// line its last slots sit on.
const lineSlots = cacheLine / 4

// NewForbidden returns a forbidden set able to hold colors < size
// without growing.
func NewForbidden(size int) *Forbidden {
	return &Forbidden{mark: newMarks(max(size, 1) + 1)}
}

// newMarks returns n zeroed mark slots with a cache line of slack past
// the last.
func newMarks(n int) []int32 {
	return make([]int32, n, n+lineSlots)
}

// ForbiddenSize is the size every forbidden set for colorings of g
// starts at: twice the lower bound max |vtxs(v)|, where Forbidden's
// doubling would first land, clamped to the vertex count, which no
// color reaches. A color past it grows the set.
func ForbiddenSize(g *bipartite.Graph) int {
	return min(2*g.ColorLowerBound(), g.NumVertices()) + 1
}

// Reset starts a new epoch. The zero-initialized mark array matches no
// positive stamp, and on the (practically unreachable) stamp overflow
// the array is re-zeroed.
func (f *Forbidden) Reset() {
	f.stamp++
	if f.stamp <= 0 { // wrapped around
		clear(f.mark)
		f.stamp = 1
	}
}

// Add marks col as forbidden in the current epoch, growing the array
// when col is past its size: the initial ForbiddenSize is a guess from
// the lower bound, not a bound, so first fit on a graph whose greedy
// colors outrun it grows here as a balancing Policy may. Adding
// Uncolored marks slot 0 and forbids no color.
func (f *Forbidden) Add(col int32) {
	i := int(col) + 1
	if i >= len(f.mark) {
		f.grow(i + 1)
	}
	f.mark[i] = f.stamp
}

// Has reports whether color col ≥ 0 is forbidden in the current epoch.
func (f *Forbidden) Has(col int32) bool {
	i := int(col) + 1
	if i >= len(f.mark) {
		return false
	}
	return f.mark[i] == f.stamp
}

// fullScan is the addNbrs bound that scans every net to its end.
const fullScan = math.MaxInt32

// addNbrs forbids the colors of w's distance-2 neighbourhood, the other
// vertices of w's nets, and returns the work model's charge for the
// scan, |vtxs(v)|+1 per net. It reads colors through Get, so parallel
// phases may call it while other threads write. An Uncolored
// neighbour, and w itself, mark slot 0, so the scan does not branch on
// a neighbour's color. Each net's scan ends at its first vertex
// ≥ below; a caller may pass less than fullScan only when the nets are
// sorted and every vertex ≥ below is Uncolored, so that the colors
// and the charge are those of the full scan.
func (f *Forbidden) addNbrs(g *bipartite.Graph, w int32, c *Colors, below int32) (work int64) {
	mark, stamp := f.mark, f.stamp
	for _, v := range g.Nets(w) {
		vt := g.Vtxs(v)
		work += int64(len(vt)) + 1
		for _, u := range vt {
			if u >= below {
				break
			}
			cu := c.Get(u)
			if u == w {
				cu = Uncolored
			}
			i := int(cu) + 1
			if i >= len(mark) {
				mark = f.grow(i + 1)
			}
			mark[i] = stamp
		}
	}
	return work
}

func (f *Forbidden) grow(minLen int) []int32 {
	next := newMarks(max(2*len(f.mark), minLen))
	copy(next, f.mark)
	f.mark = next
	return next
}
