package core

import (
	"sync/atomic"

	"bgpc/internal/bipartite"
	"bgpc/internal/par"
)

// scratch is the per-thread state allocated once per run, per the
// paper's implementation notes (forbidden arrays and local queues are
// never freed or cleared between nets/vertices): one block per thread.
type scratch []threadScratch

// threadScratch is one thread's block. Forbidden.Reset writes the stamp
// on every vertex or net, and a balancing Policy is written on every
// pick, so a cache line of padding keeps the next thread's block off
// the lines they sit on; the mark array and the worklist carry a line
// of slack past their end.
type threadScratch struct {
	forb Forbidden
	wl   []int32 // W_local for the two-pass net coloring
	pol  Policy
	_    [cacheLine]byte
}

func newScratch(g *bipartite.Graph, threads int, balance Balance) scratch {
	s := make(scratch, threads)
	size := ForbiddenSize(g)
	for i := range s {
		s[i].forb.mark = newMarks(size + 1)
		s[i].pol = Policy{balance: balance}
	}
	return s
}

// resetPolicies reinitializes the thread-private balancing state at the
// start of a coloring phase (colmax ← 0, colnext ← 0).
func (s scratch) resetPolicies(balance Balance) {
	for i := range s {
		s[i].pol = Policy{balance: balance}
	}
}

func (o *Options) parOpts(cn *par.Canceler) par.Options {
	return par.Options{Threads: o.threads(), Chunk: o.chunk(), Cancel: cn, Stats: o.stats}
}

// colorVertexPhase is BGPC-COLORWORKQUEUE-VERTEX (Algorithm 4) with the
// balancing policies of Algorithms 11/12: each vertex of W scans its
// distance-2 neighbourhood through its nets, builds a private forbidden
// set, and picks a color. With masks (first fit only) a vertex scans
// only its small nets and reads its large nets' color masks: masks
// published as W is colored when every vertex of W starts Uncolored,
// or, with queued, masks that build made from the colors of the
// vertices outside W, plus the current colors of the W members of each
// large net. With frontier, for W ascending on sorted nets with every
// vertex Uncolored, each net's scan stops at the dispatch frontier.
func colorVertexPhase(g *bipartite.Graph, W []int32, c *Colors, s scratch, m *netMasks, queued, frontier bool, o *Options, wc *WorkCounters, cn *par.Canceler) {
	s.resetPolicies(o.Balance)
	var front *dispatchFrontier
	if frontier {
		front = &wc.frontier
		front.end.Store(0)
	}
	par.For(len(W), o.parOpts(cn), func(tid, lo, hi int) {
		f := &s[tid].forb
		pol := &s[tid].pol
		work := int64(DispatchCostUnits) * int64(o.threads())
		if front != nil {
			front.raise(hi)
		}
		for i := lo; i < hi; i++ {
			w := W[i]
			below := int32(fullScan)
			if front != nil {
				below = front.below(W, i, hi)
			}
			f.Reset()
			if m != nil {
				work += m.color(g, w, c, f, tid, below, queued)
				continue
			}
			work += f.addNbrs(g, w, c, below)
			c.Set(w, pol.Pick(f, w))
		}
		wc.AddChunk(work)
	})
}

// dispatchFrontier is the end of the furthest chunk of W a vertex
// coloring phase has handed out: each chunk raises it when it starts.
// When W is ascending, nets are sorted and every vertex of W starts
// Uncolored, a vertex at or past W[end] has not been handed out, so it
// is still Uncolored and a scan can stop there. The word sits on a
// cache line of its own, since every chunk writes it and every vertex
// reads it.
type dispatchFrontier struct {
	_   [cacheLine]byte
	end atomic.Int64
	_   [cacheLine - 8]byte
}

// raise lifts the frontier to hi, the end of a chunk that starts.
func (d *dispatchFrontier) raise(hi int) {
	for {
		old := d.end.Load()
		if old >= int64(hi) || d.end.CompareAndSwap(old, int64(hi)) {
			return
		}
	}
}

// below returns the scan bound of W[i], in the chunk that ends at hi.
// While that chunk is the furthest handed out, every vertex past W[i]
// is Uncolored and the scan stops at W[i], as natural-order Sequential
// does; that is exact at one thread. Otherwise it stops at the
// frontier's vertex, and scans to the end once the frontier is past W.
// At more threads a chunk handed out after the read may color vertices
// the scan skipped, as a concurrent chunk may in a full scan; the
// conflict phase, which reads the colors, catches both.
func (d *dispatchFrontier) below(W []int32, i, hi int) int32 {
	switch end := int(d.end.Load()); {
	case end == hi:
		return W[i]
	case end < len(W):
		return W[end]
	}
	return fullScan
}

// conflictVertexPhase is BGPC-REMOVECONFLICTS-VERTEX (Algorithm 5):
// each vertex of W that conflicts is pushed to ColPack's immediate
// shared next-iteration queue q (V-V, V-V-64), or, when q is nil, to
// its thread's local queue in l, merged at the barrier (the lazy "D"
// construction of V-V-64D). Only the shared queue's pushes are charged
// to the work model. A non-nil flags holds the flags of a detect pass
// on the current colors: an unflagged vertex then is no conflict and is
// charged |vtxs(v)|+1 per net, as the scan that finds nothing, without
// reading a color, and a flagged one keeps the scan.
func conflictVertexPhase(g *bipartite.Graph, W []int32, c *Colors, flags *netMasks, q *par.SharedQueue, l *par.LocalQueues, o *Options, wc *WorkCounters, cn *par.Canceler) {
	var pushCost int64
	if q != nil {
		pushCost = int64(queuePushCostUnits) * int64(o.threads())
	}
	par.For(len(W), o.parOpts(cn), func(tid, lo, hi int) {
		work := int64(DispatchCostUnits) * int64(o.threads())
		for i := lo; i < hi; i++ {
			w := W[i]
			if flags != nil && flags.flag[w] != flags.stamp {
				for _, v := range g.Nets(w) {
					work += int64(g.NetDeg(v)) + 1
				}
				continue
			}
			if !vertexConflicts(g, w, c, &work) {
				continue
			}
			if q != nil {
				q.Push(w)
			} else {
				l.Push(tid, w)
			}
			work += pushCost
		}
		wc.AddChunk(work)
	})
}

// vertexConflicts scans w's neighbourhood and reports whether w must be
// recolored: some u with c[u] = c[w] and w > u exists (Algorithm 3's
// tie-break keeps the smaller id). Early-exits on the first conflict.
// Only smaller ids count, so on sorted nets each net's scan ends at its
// first vertex ≥ w; the work model charges the full net either way.
func vertexConflicts(g *bipartite.Graph, w int32, c *Colors, work *int64) bool {
	cw := c.Get(w)
	below := int32(fullScan)
	if g.SortedNets() {
		below = w
	}
	for _, v := range g.Nets(w) {
		vt := g.Vtxs(v)
		for i, u := range vt {
			if u >= below {
				break
			}
			if u < w && c.Get(u) == cw {
				*work += int64(i) + 2
				return true
			}
		}
		*work += int64(len(vt)) + 1
	}
	return false
}

// conflictNetPhase is BGPC-REMOVECONFLICTS-NET (Algorithm 7): every net
// keeps the first occurrence of each color and uncolors later
// duplicates in place. The caller gathers the uncolored vertices into
// the next work queue afterwards. Any negative color counts as
// Uncolored, since Repair runs it on colorings it did not make.
func conflictNetPhase(g *bipartite.Graph, c *Colors, s scratch, o *Options, wc *WorkCounters, cn *par.Canceler) {
	par.For(g.NumNets(), o.parOpts(cn), func(tid, lo, hi int) {
		f := &s[tid].forb
		work := int64(DispatchCostUnits) * int64(o.threads())
		for v := lo; v < hi; v++ {
			f.Reset()
			vt := g.Vtxs(int32(v))
			work += int64(len(vt)) + 1
			for _, u := range vt {
				cu := c.Get(u)
				if cu < 0 {
					continue
				}
				if f.Has(cu) {
					c.Set(u, Uncolored)
				} else {
					f.Add(cu)
				}
			}
		}
		wc.AddChunk(work)
	})
}

// colorNetPhase dispatches to the configured net-based coloring
// variant over all nets.
func colorNetPhase(g *bipartite.Graph, c *Colors, s scratch, o *Options, wc *WorkCounters, cn *par.Canceler) {
	s.resetPolicies(o.Balance)
	switch o.NetColorVariant {
	case NetV1:
		colorNetV1(g, c, s, o, wc, cn, false)
	case NetV1Reverse:
		colorNetV1(g, c, s, o, wc, cn, true)
	default:
		colorNetTwoPass(g, c, s, o, wc, cn)
	}
}

// colorNetTwoPass is BGPC-COLORWORKQUEUE-NET (Algorithm 8): pass one
// marks the colors already present in the net and collects the vertices
// to (re)color; pass two colors them with reverse first-fit from
// |vtxs(v)|−1 (or the B1/B2 Policy when balancing).
func colorNetTwoPass(g *bipartite.Graph, c *Colors, s scratch, o *Options, wc *WorkCounters, cn *par.Canceler) {
	if cap(s[0].wl) == 0 {
		// A net's worklist holds at most its |vtxs(v)| vertices, so it
		// never grows out of its slack.
		lb := g.ColorLowerBound()
		for i := range s {
			s[i].wl = make([]int32, 0, lb+lineSlots)
		}
	}
	par.For(g.NumNets(), o.parOpts(cn), func(tid, lo, hi int) {
		f := &s[tid].forb
		pol := &s[tid].pol
		wl := s[tid].wl
		work := int64(DispatchCostUnits) * int64(o.threads())
		for v := lo; v < hi; v++ {
			vt := g.Vtxs(int32(v))
			work += int64(len(vt)) + 1
			f.Reset()
			wl = wl[:0]
			for _, u := range vt {
				cu := c.Get(u)
				if cu != Uncolored && !f.Has(cu) {
					f.Add(cu)
				} else {
					wl = append(wl, u)
				}
			}
			if len(wl) == 0 {
				continue
			}
			work += int64(len(wl))
			if o.Balance == BalanceNone {
				col := int32(len(vt)) - 1
				for _, u := range wl {
					col = ReverseFit(f, col)
					if col < 0 {
						// Unreachable per Lemma 1; kept as a safety
						// net for adversarially corrupted inputs.
						col = FirstFitFrom(f, int32(len(vt)))
					}
					c.Set(u, col)
					f.Add(col)
					col--
				}
			} else {
				for _, u := range wl {
					col := pol.Pick(f, u)
					c.Set(u, col)
					f.Add(col)
				}
			}
		}
		wc.AddChunk(work)
	})
}

// colorNetV1 is BGPC-COLORWORKQUEUE-NET-V1 (Algorithm 6): a single
// pass that recolors conflicting or uncolored vertices on the fly with
// a net-local monotone first-fit (reverse=false) or the "Alg 6 +
// reverse" first-fit from |vtxs(v)|−1 (reverse=true), the two upper
// rows of Table I.
func colorNetV1(g *bipartite.Graph, c *Colors, s scratch, o *Options, wc *WorkCounters, cn *par.Canceler, reverse bool) {
	par.For(g.NumNets(), o.parOpts(cn), func(tid, lo, hi int) {
		f := &s[tid].forb
		work := int64(DispatchCostUnits) * int64(o.threads())
		for v := lo; v < hi; v++ {
			vt := g.Vtxs(int32(v))
			work += int64(len(vt)) + 1
			f.Reset()
			var col int32
			if reverse {
				col = int32(len(vt)) - 1
			}
			for _, u := range vt {
				cu := c.Get(u)
				if cu == Uncolored || f.Has(cu) {
					if reverse {
						col = ReverseFit(f, col)
						if col < 0 {
							col = FirstFitFrom(f, int32(len(vt)))
						}
					} else {
						col = FirstFitFrom(f, col)
					}
					cu = col
					c.Set(u, cu)
				}
				f.Add(cu)
			}
		}
		wc.AddChunk(work)
	})
}

// gatherUncolored rebuilds the work queue after a net-based conflict
// removal: all vertices left Uncolored, in ascending id order. Isolated
// vertices are pre-colored by the runner and so never reappear.
func gatherUncolored(g *bipartite.Graph, c *Colors, o *Options) []int32 {
	return par.GatherInt32(g.NumVertices(), par.Options{Threads: o.threads()},
		func(u int32) bool { return c.Get(u) == Uncolored })
}
