// Package dist simulates the distributed-memory speculative coloring
// framework the paper's shared-memory algorithms descend from (Boman,
// Bozdağ, Çatalyürek, Gebremedhin, Manne et al. [5][6][27][28] in the
// paper's bibliography): vertices are partitioned across ranks, each
// superstep optimistically colors local work queues against a local
// view, boundary colors are exchanged as messages, and conflicts
// between ranks are re-queued for the next superstep.
//
// Ranks are goroutines and messages are Go channels, executed with
// strict bulk-synchronous (BSP) semantics, so results are fully
// deterministic for a fixed rank count — a property the tests exploit.
// The simulation counts messages and transferred values per superstep,
// the communication-volume metric distributed coloring papers report.
package dist

import (
	"fmt"
	"sync"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/graph"
)

// Stats describes one distributed run.
type Stats struct {
	// Ranks is the simulated process count.
	Ranks int
	// Supersteps is the number of color-exchange-detect rounds.
	Supersteps int
	// Messages is the total number of point-to-point messages.
	Messages int64
	// Values is the total number of (vertex, color) pairs shipped.
	Values int64
}

// update is one boundary notification: vertex u now has color c
// (c may be Uncolored when a conflict uncolored u).
type update struct {
	u int32
	c int32
}

// ColorBGPC runs the distributed speculative BGPC: columns are block-
// partitioned over `ranks` simulated processes. Returns the coloring
// and the communication statistics. superstepLimit guards against
// livelock (0 = 10000).
func ColorBGPC(g *bipartite.Graph, ranks, superstepLimit int) ([]int32, Stats, error) {
	n := g.NumVertices()
	if ranks < 1 {
		ranks = 1
	}
	if ranks > n && n > 0 {
		ranks = n
	}
	if superstepLimit <= 0 {
		superstepLimit = 10000
	}
	if n == 0 {
		return nil, Stats{Ranks: ranks}, nil
	}

	owner := func(u int32) int { return int(int64(u) * int64(ranks) / int64(n)) }

	// Random tie-breaking (Boman et al.): conflicts are resolved by a
	// hashed priority rather than raw vertex id, which prevents the
	// id-order cascade across consecutive blocks and keeps the
	// superstep count low. Ties on the hash fall back to the id.
	prio := make([]uint64, n)
	for u := int32(0); int(u) < n; u++ {
		z := uint64(u) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		prio[u] = z ^ (z >> 31)
	}
	beats := func(w, u int32) bool { // does w keep its color over u?
		if prio[w] != prio[u] {
			return prio[w] < prio[u]
		}
		return w < u
	}

	// subscribers[u]: the ranks that own a distance-2 neighbour of u
	// and therefore need u's color. Precomputed once, like the ghost
	// lists a real implementation builds at setup.
	subscribers := make([][]int32, n) // rank ids in first-seen order, excluding the owner
	{
		seen := make([]int32, ranks)
		for i := range seen {
			seen[i] = -1
		}
		for u := int32(0); int(u) < n; u++ {
			own := owner(u)
			for _, v := range g.Nets(u) {
				for _, w := range g.Vtxs(v) {
					r := owner(w)
					if r != own && seen[r] != u {
						seen[r] = u
						subscribers[u] = append(subscribers[u], int32(r))
					}
				}
			}
		}
	}

	// Channels: inbox[r] carries one message per sender per superstep.
	type message struct {
		updates []update
	}
	inbox := make([]chan message, ranks)
	for r := range inbox {
		// Buffer enough for one superstep from every peer.
		inbox[r] = make(chan message, ranks)
	}

	// Per-rank state.
	type rankState struct {
		queue   []int32 // local work queue
		view    []int32 // local view of all colors
		colored []int32 // vertices colored this superstep
		forb    *core.Forbidden
		outs    map[int32][]update // per-destination staging
		msgs    int64
		vals    int64
	}
	states := make([]*rankState, ranks)
	size := core.ForbiddenSize(g)
	for r := 0; r < ranks; r++ {
		st := &rankState{
			view: make([]int32, n),
			forb: core.NewForbidden(size),
			outs: make(map[int32][]update, ranks),
		}
		for i := range st.view {
			st.view[i] = core.Uncolored
		}
		states[r] = st
	}
	for u := int32(0); int(u) < n; u++ {
		if g.VtxDeg(u) == 0 {
			// Isolated columns never conflict; color locally everywhere.
			for _, st := range states {
				st.view[u] = 0
			}
			continue
		}
		states[owner(u)].queue = append(states[owner(u)].queue, u)
	}

	var wg sync.WaitGroup
	barrier := newBarrier(ranks)
	remaining := make([]int, ranks) // queue sizes after each superstep
	supersteps := 0
	var failure error
	var failMu sync.Mutex

	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			st := states[rank]
			for step := 1; ; step++ {
				if step > superstepLimit {
					failMu.Lock()
					if failure == nil {
						failure = fmt.Errorf("dist: no fixed point after %d supersteps", superstepLimit)
					}
					failMu.Unlock()
					return
				}
				// Phase A: optimistic local coloring (first-fit on the
				// local view). A conflicting pair recolored in the same
				// superstep can re-collide once; the winner then keeps
				// its color and the loser resolves against it in the
				// following superstep, so each conflict drains within
				// two rounds (the randomized tie-break prevents the
				// block-order cascade raw vertex ids would cause).
				st.colored = st.colored[:0]
				for _, u := range st.queue {
					st.forb.Reset()
					for _, v := range g.Nets(u) {
						for _, w := range g.Vtxs(v) {
							if w != u && st.view[w] != core.Uncolored {
								st.forb.Add(st.view[w])
							}
						}
					}
					st.view[u] = core.FirstFit(st.forb)
					st.colored = append(st.colored, u)
				}
				// Phase B: ship boundary colors to subscriber ranks.
				for d := range st.outs {
					st.outs[d] = st.outs[d][:0]
				}
				for _, u := range st.colored {
					for _, d := range subscribers[u] {
						st.outs[d] = append(st.outs[d], update{u: u, c: st.view[u]})
					}
				}
				for d, ups := range st.outs {
					if len(ups) == 0 {
						continue
					}
					payload := make([]update, len(ups))
					copy(payload, ups)
					inbox[d] <- message{updates: payload}
					st.msgs++
					st.vals += int64(len(ups))
				}
				barrier.wait() // all sends of this superstep done
				// Phase C: drain the inbox into the local view.
				for {
					select {
					case m := <-inbox[rank]:
						for _, up := range m.updates {
							st.view[up.u] = up.c
						}
						continue
					default:
					}
					break
				}
				barrier.wait() // all views consistent
				// Phase D: detect boundary conflicts among vertices
				// colored THIS superstep; the higher id re-queues
				// (matching the paper's Algorithm 3 tie-break).
				next := st.queue[:0]
				for _, u := range st.colored {
					cu := st.view[u]
					conflict := false
				scan:
					for _, v := range g.Nets(u) {
						for _, w := range g.Vtxs(v) {
							if w != u && beats(w, u) && st.view[w] == cu {
								conflict = true
								break scan
							}
						}
					}
					if conflict {
						st.view[u] = core.Uncolored
						next = append(next, u)
					}
				}
				st.queue = next
				remaining[rank] = len(st.queue)
				// Phase E: ship uncolorings so peers drop stale colors.
				for d := range st.outs {
					st.outs[d] = st.outs[d][:0]
				}
				for _, u := range st.queue {
					for _, d := range subscribers[u] {
						st.outs[d] = append(st.outs[d], update{u: u, c: core.Uncolored})
					}
				}
				for d, ups := range st.outs {
					if len(ups) == 0 {
						continue
					}
					payload := make([]update, len(ups))
					copy(payload, ups)
					inbox[d] <- message{updates: payload}
					st.msgs++
					st.vals += int64(len(ups))
				}
				barrier.wait()
				for {
					select {
					case m := <-inbox[rank]:
						for _, up := range m.updates {
							st.view[up.u] = up.c
						}
						continue
					default:
					}
					break
				}
				barrier.wait() // allreduce point: remaining[] is stable
				if rank == 0 {
					supersteps = step
				}
				total := 0
				for _, q := range remaining {
					total += q
				}
				barrier.wait()
				if total == 0 {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if failure != nil {
		return nil, Stats{Ranks: ranks}, failure
	}

	// Assemble the final coloring from each owner's view.
	colors := make([]int32, n)
	for u := int32(0); int(u) < n; u++ {
		if g.VtxDeg(u) == 0 {
			colors[u] = 0
			continue
		}
		colors[u] = states[owner(u)].view[u]
	}
	st := Stats{Ranks: ranks, Supersteps: supersteps}
	for _, s := range states {
		st.Messages += s.msgs
		st.Values += s.vals
	}
	return colors, st, nil
}

// barrier is a reusable N-party synchronization barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// ColorD2GC runs the distributed speculative distance-2 coloring on an
// undirected graph — the problem the framework papers ([5],[6]) target
// directly — as ColorBGPC on the graph's closed-neighbourhood view
// (graph.Graph.Closed), whose BGPC constraints are exactly the
// distance-2 ones.
func ColorD2GC(g *graph.Graph, ranks, superstepLimit int) ([]int32, Stats, error) {
	return ColorBGPC(g.Closed(), ranks, superstepLimit)
}
