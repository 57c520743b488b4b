// Package delta is the incremental-recoloring subsystem: typed edge
// insert/remove lists with strict validation and caps, application of
// a delta to a cached CSR graph, dirty-set computation, and warm-start
// recoloring of only the affected vertices via the existing sequential
// repair/finish machinery in internal/core, which colors D2GC through
// the closed-neighbourhood view of the undirected graph.
//
// The central observation (ROADMAP direction 1; Rokos et al.,
// arXiv:1505.04086) is that the repair machinery already recolors an
// arbitrary conflict set — a delta is just a synthetic conflict set
// warm-started from the cached coloring. Correctness rests on two
// facts, proved in the comment on DirtyBGPC:
//
//   - Removing an edge only removes constraints: a coloring valid for G
//     stays valid for G minus any edge set. Removals may make colors
//     *legalizable* (a smaller palette could now work) but never make
//     the warm-start invalid.
//   - Every conflict created by inserting edges involves a vertex in
//     the dirty set, so uncoloring the dirty set and greedily refilling
//     it against the already-valid remainder yields a complete valid
//     coloring of the mutated graph.
//
// The service layer (internal/service) wires this into
// POST /color/{fingerprint}/delta; the differential test suite in this
// package asserts delta-recolored results match from-scratch coloring
// of the mutated graph in conflict-freedom for both BGPC and D2GC.
package delta

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
)

// FPApply is probed on every delta application. Arming it lets the
// chaos battery rehearse apply-path faults (errors, stragglers, worker
// panics) without crafting a delta that actually fails.
const FPApply = "delta.apply"

// ErrInvalid reports a delta rejected by validation: malformed pairs,
// out-of-range endpoints, over-cap lists, or an edge named in both
// lists. Match with errors.Is; API layers map it to a 400-class status.
var ErrInvalid = errors.New("delta: invalid delta")

// EdgeList is the wire form of an edge list: a JSON array of [net, vtx]
// pairs, e.g. [[0,3],[7,1]]. Decoding is strict — every element must be
// exactly two integers within int32 range, and the list is capped at
// limits.MaxDeltaEdges — so a hostile body fails fast instead of
// materializing unbounded state. (The HTTP layer additionally caps the
// raw body bytes before JSON ever runs.)
type EdgeList []bipartite.Edge

// UnmarshalJSON implements the strict pair-list decoding.
func (l *EdgeList) UnmarshalJSON(b []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("%w: edge list: %v", ErrInvalid, err)
	}
	if len(raw) > limits.MaxDeltaEdges {
		return fmt.Errorf("%w: %d edges exceeds cap %d", ErrInvalid, len(raw), limits.MaxDeltaEdges)
	}
	out := make(EdgeList, len(raw))
	for i, el := range raw {
		var pair []int64
		if err := json.Unmarshal(el, &pair); err != nil {
			return fmt.Errorf("%w: edge %d: want [net, vtx] pair: %v", ErrInvalid, i, err)
		}
		if len(pair) != 2 {
			return fmt.Errorf("%w: edge %d has %d elements, want 2", ErrInvalid, i, len(pair))
		}
		if pair[0] < 0 || pair[0] > math.MaxInt32 || pair[1] < 0 || pair[1] > math.MaxInt32 {
			return fmt.Errorf("%w: edge %d endpoints (%d, %d) outside int32 range", ErrInvalid, i, pair[0], pair[1])
		}
		out[i] = bipartite.Edge{Net: int32(pair[0]), Vtx: int32(pair[1])}
	}
	*l = out
	return nil
}

// MarshalJSON emits the same pair-list form the decoder accepts.
func (l EdgeList) MarshalJSON() ([]byte, error) {
	pairs := make([][2]int32, len(l))
	for i, e := range l {
		pairs[i] = [2]int32{e.Net, e.Vtx}
	}
	return json.Marshal(pairs)
}

// Delta is one batch of incidence mutations: edges to insert and edges
// to remove, applied as (E ∪ Insert) \ Remove.
type Delta struct {
	Insert EdgeList `json:"insert,omitempty"`
	Remove EdgeList `json:"remove,omitempty"`
}

// Empty reports whether the delta names no edges at all.
func (d Delta) Empty() bool { return len(d.Insert) == 0 && len(d.Remove) == 0 }

// Validate checks the delta's shape independent of any graph: list
// caps and the no-overlap rule. An edge in both lists is rejected as
// ambiguous rather than silently resolved — a client that says both
// "insert (v,u)" and "remove (v,u)" has a bug, and the set semantics
// that would quietly pick remove-wins hides it. Endpoint range checks
// against actual graph dimensions happen in Apply, because the decoder
// runs before the cached graph is known.
func (d Delta) Validate() error {
	if len(d.Insert) > limits.MaxDeltaEdges || len(d.Remove) > limits.MaxDeltaEdges {
		return fmt.Errorf("%w: list exceeds cap %d (insert=%d, remove=%d)",
			ErrInvalid, limits.MaxDeltaEdges, len(d.Insert), len(d.Remove))
	}
	if len(d.Insert) == 0 || len(d.Remove) == 0 {
		return nil
	}
	ins := make(map[bipartite.Edge]bool, len(d.Insert))
	for _, e := range d.Insert {
		ins[e] = true
	}
	for _, e := range d.Remove {
		if ins[e] {
			return fmt.Errorf("%w: edge (net=%d, vtx=%d) in both insert and remove", ErrInvalid, e.Net, e.Vtx)
		}
	}
	return nil
}

// Apply builds the mutated graph (E ∪ Insert) \ Remove from the cached
// one, returning it with the effective insert/remove counts. The input
// graph is not modified. Out-of-range endpoints surface as ErrInvalid.
// The FPApply failpoint is probed first so chaos schedules can fault or
// delay the apply path deterministically.
func Apply(g *bipartite.Graph, d Delta) (out *bipartite.Graph, inserted, removed int, err error) {
	if err := failpoint.Inject(FPApply); err != nil {
		return nil, 0, 0, fmt.Errorf("delta: apply: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, 0, 0, err
	}
	out, inserted, removed, err = g.ApplyDelta(d.Insert, d.Remove)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return out, inserted, removed, nil
}

// DirtyBGPC returns the distinct vertices that must be uncolored before
// warm-start recoloring: the vertex endpoint of every inserted edge.
//
// Why this set suffices: suppose colors valid for G are kept on all
// vertices outside it and some net v of G′ = (E ∪ I) \ R contains two
// same-colored vertices u ≠ w, neither dirty. Then (v,u) and (v,w) are
// both in G′ but not in I (their vertices would be dirty), so both were
// in E — meaning u and w already conflicted in G, contradicting the
// base coloring's validity. Removals never create conflicts (they only
// delete constraint pairs), so they contribute nothing to the set.
//
// The same set serves distance-2 recoloring on the closed view. There
// nets and vertices share one id space and every new distance-≤2 pair
// runs through a new undirected edge {a,b}. d2 mode only accepts deltas
// whose result is symmetric, so a new edge arrives as both (a,b) and
// (b,a), and its two vertex endpoints are exactly a and b. An insert
// whose mirror already existed adds no edge and needs no uncoloring.
func (d Delta) DirtyBGPC() []int32 {
	seen := make(map[int32]bool, len(d.Insert))
	out := make([]int32, 0, len(d.Insert))
	for _, e := range d.Insert {
		if !seen[e.Vtx] {
			seen[e.Vtx] = true
			out = append(out, e.Vtx)
		}
	}
	return out
}

// Stats summarizes one incremental recoloring for telemetry and
// response bodies.
type Stats struct {
	// Dirty is the number of vertices uncolored before repair — the
	// size of the synthetic conflict set.
	Dirty int
	// Recolored is the number of vertices whose final color differs
	// from the warm-start base (including previously-valid vertices the
	// safety repair had to strip, if any).
	Recolored int
}

// RecolorBGPC produces a complete valid BGPC coloring of g2 (the
// mutated graph) warm-started from base (a valid coloring of the graph
// before the delta): copy base, uncolor the dirty set, run the
// sequential conflict repair as a safety net, and greedily finish the
// holes. base is not modified. The caller is expected to verify the
// result against g2 before trusting it (the service layer does).
//
// Passing the closed view of the mutated undirected graph
// (graph.Graph.Closed) recolors distance-2.
func RecolorBGPC(g2 *bipartite.Graph, base []int32, dirty []int32) ([]int32, Stats, error) {
	colors, st, err := warmStart(g2.NumVertices(), base, dirty)
	if err != nil {
		return nil, Stats{}, err
	}
	core.Repair(g2, colors)
	core.FinishSequential(g2, colors)
	st.Recolored = diffCount(base, colors)
	return colors, st, nil
}

// warmStart copies the base coloring and uncolors the dirty set,
// validating lengths and ids on the way.
func warmStart(numVtx int, base []int32, dirty []int32) ([]int32, Stats, error) {
	if len(base) != numVtx {
		return nil, Stats{}, fmt.Errorf("%w: base coloring has %d entries for %d vertices", ErrInvalid, len(base), numVtx)
	}
	colors := append([]int32(nil), base...)
	for _, v := range dirty {
		if v < 0 || int(v) >= numVtx {
			return nil, Stats{}, fmt.Errorf("%w: dirty vertex %d outside [0,%d)", ErrInvalid, v, numVtx)
		}
		colors[v] = core.Uncolored
	}
	return colors, Stats{Dirty: len(dirty)}, nil
}

func diffCount(base, colors []int32) int {
	n := 0
	for i := range colors {
		if colors[i] != base[i] {
			n++
		}
	}
	return n
}
