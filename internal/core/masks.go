package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"bgpc/internal/bipartite"
	"bgpc/internal/par"
)

// maskMinNetDeg is the smallest net that gets a color mask: a vertex
// reads a mask in one word per 64 colors instead of the net's
// |vtxs(v)| colors, which pays once nets are this large. Smaller nets
// are scanned.
const maskMinNetDeg = 32

// maskNNZPerWord caps the mask words of a run at one per maskNNZPerWord
// nonzeros, 2 bytes per nonzero. Every masked net holds at least
// maskMinNetDeg nonzeros, so the cap always leaves room for
// maskMinNetDeg/maskNNZPerWord = 8 blocks (512 colors); colors past the
// last maskable block are found by scanning.
const maskNNZPerWord = 4

// netMasks is the per-run color mask of every large net: bit c%64 of
// blocks[c/64][row] is set once a vertex of the row's net holds color
// c. A vertex that starts Uncolored then finds its first-fit color by
// OR-ing its large nets' words block by block, and scans only its small
// nets.
//
// The masks equal the scan's forbidden set only while every vertex
// being colored starts Uncolored: bits are added, never removed. So a
// run publishes into them in the first vertex coloring phase and in
// vertex phases that follow a net-based conflict removal (after build).
// After a vertex-based removal the queue keeps its stale colors, so
// build leaves the queued vertices out of the masks and lists each
// row's queued members instead; a queued vertex adds their current
// colors to its forbidden set, and the phase publishes nothing. The
// colors outside the queue do not change in the phase, so the result
// is the scan's. The sequential greedy loop uses the masks from an
// empty start, and after build on a partial coloring.
//
// Concurrency: coloring phases read words with atomic loads and
// publish a new color with a CAS loop after the vertex's Colors.Set, so
// a reader that misses a concurrent publish picks a color the
// unchanged conflict detection, which reads Colors, catches. Blocks are
// added under mu and published through nblocks. build writes with
// plain stores, one row per worker, ordered before the next phase by
// the par.For barrier; that is why the words are plain uint64s.
//
// The masks do not serve conflict detection; they only lend it their
// pooled flag array. detect walks every net, and on a graph without a
// large net the masks come with zero rows and serve detection alone.
type netMasks struct {
	rowOf     []int32 // row of each net, -1 for a net that is scanned
	nets      []int32 // net of each row
	maxBlocks int     // blocks the cap and the vertex count allow

	// flag[u] == stamp marks u as flagged by the last detect pass, or
	// as queued by the last build of a queue. The stamp grows across
	// pooled runs, so a flag left by an earlier pass, on this graph or
	// another, never matches.
	flag  []int32
	stamp int32

	mu      sync.Mutex
	nblocks atomic.Int32
	blocks  [][]uint64 // len maxBlocks; blocks ≥ nblocks are not in use

	// members[memberOff[r]:memberOff[r+1]] are the queued vertices of
	// row r's net, as of the last build of a queue.
	memberOff []int
	members   []int32

	big []rowBuf // per-thread rows of the vertex being colored
}

// rowBuf is one thread's row buffer. The header is written on every
// vertex, so a cache line of padding keeps the next thread's header off
// its line, and the array holds every row plus a line of slack, so it
// never grows.
type rowBuf struct {
	rows []int32
	_    [cacheLine]byte
}

// maskPool keeps masks between runs, so repeated jobs on graphs of a
// similar shape allocate no mask memory.
var maskPool sync.Pool

// hasRows reports whether g has a net that gets a color mask, which
// the masked first fit needs.
func hasRows(g *bipartite.Graph) bool {
	return g.SortedNets() && g.ColorLowerBound() >= maskMinNetDeg
}

// acquireMasks returns cleared masks for one run on g with the given
// threads, or nil on a view, whose Nets() direction is not the
// transpose of Vtxs() (they are the graphs with unsorted nets). On a
// graph without a net of maskMinNetDeg vertices the masks have zero
// rows and serve only detect's flags.
func acquireMasks(g *bipartite.Graph, threads int) *netMasks {
	if !g.SortedNets() {
		return nil
	}
	numNets := g.NumNets()
	rows := 0
	for v := int32(0); int(v) < numNets; v++ {
		if g.NetDeg(v) >= maskMinNetDeg {
			rows++
		}
	}
	m, _ := maskPool.Get().(*netMasks)
	if m == nil {
		m = new(netMasks)
	}
	m.rowOf = resize(m.rowOf, numNets)
	m.nets = resize(m.nets, rows)
	rows = 0
	for v := int32(0); int(v) < numNets; v++ {
		m.rowOf[v] = -1
		if g.NetDeg(v) >= maskMinNetDeg {
			m.rowOf[v] = int32(rows)
			m.nets[rows] = v
			rows++
		}
	}
	// Every color is below the vertex count; the blocks are allocated
	// as colors reach them.
	m.maxBlocks = 0
	if rows > 0 {
		m.maxBlocks = min((g.NumVertices()+63)/64, max(1, int(g.NumEdges()/maskNNZPerWord)/rows))
	}
	m.blocks = resize(m.blocks, m.maxBlocks)
	m.big = resize(m.big, threads)
	for i := range m.big {
		if cap(m.big[i].rows) < rows+lineSlots {
			m.big[i].rows = make([]int32, 0, rows+lineSlots)
		}
	}
	m.nblocks.Store(0)
	return m
}

// takeMasks returns *m, first setting it to acquireMasks(g, threads)
// when it is nil.
func takeMasks(m **netMasks, g *bipartite.Graph, threads int) *netMasks {
	if *m == nil {
		*m = acquireMasks(g, threads)
	}
	return *m
}

// release returns m to the pool; m must not be used afterwards.
func (m *netMasks) release() {
	if m != nil {
		maskPool.Put(m)
	}
}

// resize returns s with length n. It reuses s's array when the
// capacity allows, keeping the elements past its old length, and else
// copies them into an array of exactly n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		t := make([]T, n)
		copy(t, s[:cap(s)])
		return t
	}
	return s[:n]
}

// grow puts blocks up to n-1 in use, cleared.
func (m *netMasks) grow(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for b := int(m.nblocks.Load()); b < n; b++ {
		m.blocks[b] = resize(m.blocks[b], len(m.nets))
		clear(m.blocks[b])
	}
	if n > int(m.nblocks.Load()) {
		m.nblocks.Store(int32(n))
	}
}

// build sets the masks from the colors already present, in a run whose
// previous phase was not a masked vertex coloring or before
// FinishSequential completes a partial coloring: each row ORs in its
// net's colors. A non-nil queue lists the vertices the next phase
// recolors: they are flagged, left out of the masks, and listed in
// their rows' members.
func (m *netMasks) build(g *bipartite.Graph, c *Colors, queue []int32, o *Options, cn *par.Canceler) {
	maxColor := Uncolored
	for _, col := range c.Raw() {
		maxColor = max(maxColor, col)
	}
	nb := min(m.maxBlocks, int(maxColor+64)/64)
	m.nblocks.Store(0)
	m.grow(nb)
	limit := int32(nb * 64)
	queued := queue != nil
	if queued {
		m.listQueue(g, queue)
	}
	flag, stamp := m.flag, m.stamp
	par.For(len(m.nets), o.parOpts(cn), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			k := 0
			if queued {
				k = m.memberOff[r]
			}
			for _, u := range g.Vtxs(m.nets[r]) {
				if queued && flag[u] == stamp {
					m.members[k] = u
					k++
				} else if col := c.Get(u); col >= 0 && col < limit {
					m.blocks[col>>6][r] |= 1 << (col & 63)
				}
			}
		}
	})
}

// listQueue flags queue's vertices under a new stamp and sizes each
// row's member list, one entry per incidence of a queued vertex in a
// masked net; build fills the lists.
func (m *netMasks) listQueue(g *bipartite.Graph, queue []int32) {
	flag, stamp := m.nextStamp(g.NumVertices())
	off := resize(m.memberOff, len(m.nets)+1)
	clear(off)
	for _, w := range queue {
		flag[w] = stamp
		for _, v := range g.Nets(w) {
			if r := m.rowOf[v]; r >= 0 {
				off[r+1]++
			}
		}
	}
	for r := range m.nets {
		off[r+1] += off[r]
	}
	m.memberOff = off
	total := off[len(m.nets)]
	if total > cap(m.members) {
		// Queues differ from phase to phase; the headroom keeps the
		// pooled list from being reallocated for each larger one.
		m.members = make([]int32, min(2*total, int(g.NumEdges())))
	}
	m.members = m.members[:total]
}

// nextStamp starts a new epoch of flag, sized for n vertices, and
// returns the array and the stamp.
func (m *netMasks) nextStamp(n int) ([]int32, int32) {
	m.flag = resize(m.flag, n)
	m.stamp++
	if m.stamp <= 0 { // wrapped around: resize may expose any old entry
		clear(m.flag[:cap(m.flag)])
		m.stamp = 1
	}
	return m.flag, m.stamp
}

// color gives w its first-fit color and returns the work model's
// charge for w's scan, |vtxs(v)|+1 per net, as addNbrs does. f must be
// reset; tid selects the caller's row buffer. below bounds the small
// nets' scans as in addNbrs. Without queued, w must be Uncolored and
// its color is published. With queued, the masks come from a build of
// the queue w is in: the current colors of its large nets' queued
// members are added to f, and nothing is published.
func (m *netMasks) color(g *bipartite.Graph, w int32, c *Colors, f *Forbidden, tid int, below int32, queued bool) (work int64) {
	buf := &m.big[tid]
	work, buf.rows = m.scanSmall(g, w, c, f, below, buf.rows[:0])
	big := buf.rows
	if queued {
		for _, r := range big {
			for _, u := range m.members[m.memberOff[r]:m.memberOff[r+1]] {
				if u != w {
					f.Add(c.Get(u))
				}
			}
		}
	}
	col := m.firstFit(f, big)
	if col < 0 {
		// Every maskable color is taken: scan the large nets too for
		// the colors past the last block.
		for _, r := range big {
			for _, u := range g.Vtxs(m.nets[r]) {
				if u != w {
					f.Add(c.Get(u))
				}
			}
		}
		col = FirstFitFrom(f, int32(m.maxBlocks*64))
	}
	c.Set(w, col)
	if !queued {
		m.publish(col, big)
	}
	return work
}

// scanSmall is Forbidden.addNbrs for the mask path: a large net is
// charged but not scanned, and its row is appended to big, which is
// returned. The scan path keeps its own loop, which runs faster
// without the row test.
func (m *netMasks) scanSmall(g *bipartite.Graph, w int32, c *Colors, f *Forbidden, below int32, big []int32) (work int64, _ []int32) {
	mark, stamp := f.mark, f.stamp
	for _, v := range g.Nets(w) {
		vt := g.Vtxs(v)
		work += int64(len(vt)) + 1
		if r := m.rowOf[v]; r >= 0 {
			big = append(big, r)
			continue
		}
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
	return work, big
}

// firstFit returns the smallest color in the maskable blocks that
// neither the rows' masks nor f forbid, or -1 when there is none.
func (m *netMasks) firstFit(f *Forbidden, rows []int32) int32 {
	n := int(m.nblocks.Load())
	for b := 0; b < m.maxBlocks; b++ {
		var taken uint64
		if b < n {
			blk := m.blocks[b]
			for _, r := range rows {
				taken |= atomic.LoadUint64(&blk[r])
			}
		}
		for free := ^taken; free != 0; free &= free - 1 {
			if col := int32(b*64 + bits.TrailingZeros64(free)); !f.Has(col) {
				return col
			}
		}
	}
	return -1
}

// publish adds col to the masks of rows. A color past the last
// maskable block is not recorded; firstFit never reports one.
func (m *netMasks) publish(col int32, rows []int32) {
	b := int(col >> 6)
	if b >= m.maxBlocks {
		return
	}
	if b >= int(m.nblocks.Load()) {
		m.grow(b + 1)
	}
	blk, bit := m.blocks[b], uint64(1)<<(col&63)
	for _, r := range rows {
		p := &blk[r]
		for {
			old := atomic.LoadUint64(p)
			if old&bit != 0 || atomic.CompareAndSwapUint64(p, old, old|bit) {
				break
			}
		}
	}
}

// detectGrain is the least number of nets the detect pass hands out
// per dispatch. Under V-V's chunk of 1 a dispatch per net cost more
// than the walk of a small net (EXPERIMENTS.md, "Detection on every
// net").
const detectGrain = 64

// detect is the paper's Algorithm 7 pass used as a detector: each net
// of at least 2 vertices is walked in ascending order with the thread's
// stamped Forbidden, and a vertex whose color an earlier vertex of the
// net already holds is flagged. Uncolored lives in Forbidden's slot 0,
// so two Uncolored vertices conflict here as they do in
// vertexConflicts. Detection writes no color, so afterwards a vertex is
// unflagged exactly when no smaller vertex of its nets holds its color:
// exactly when vertexConflicts reports no conflict. Flags are published
// with atomic stores, since one vertex may be flagged from several nets
// at once, and read after the par.For barrier. The pass is not charged
// to the work model: the per-vertex check charges every net as the scan
// would. So its grain moves no work, and it hands out at least
// detectGrain nets per dispatch, whatever the schedule's chunk.
func (m *netMasks) detect(g *bipartite.Graph, c *Colors, s scratch, o *Options, cn *par.Canceler) {
	flag, stamp := m.nextStamp(g.NumVertices())
	po := o.parOpts(cn)
	po.Chunk = max(po.Chunk, detectGrain)
	par.For(g.NumNets(), po, func(tid, lo, hi int) {
		f := &s[tid].forb
		for v := lo; v < hi; v++ {
			vt := g.Vtxs(int32(v))
			if len(vt) < 2 {
				continue
			}
			f.Reset()
			for _, u := range vt {
				if cu := c.Get(u); f.Has(cu) {
					atomic.StoreInt32(&flag[u], stamp)
				} else {
					f.Add(cu)
				}
			}
		}
	})
}
