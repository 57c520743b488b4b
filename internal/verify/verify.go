// Package verify checks coloring validity and computes the color-set
// statistics reported in the paper's balancing experiments (Table VI,
// Figure 3).
package verify

import (
	"fmt"
	"math"
	"sort"

	"bgpc/internal/bipartite"
	"bgpc/internal/graph"
)

// BGPC checks that colors is a valid bipartite-graph partial coloring
// of g: every vertex colored with a non-negative color, and no two
// vertices of any net sharing a color (BGPCPartial's walk). It returns
// nil when valid.
func BGPC(g *bipartite.Graph, colors []int32) error {
	if err := allColored(colors, g.NumVertices()); err != nil {
		return err
	}
	return BGPCPartial(g, colors)
}

// D2GC checks that colors is a valid distance-2 coloring of g: every
// vertex colored non-negatively, distinct from all vertices within
// distance two (D2GCPartial's walk). It returns nil when valid.
func D2GC(g *graph.Graph, colors []int32) error {
	if err := allColored(colors, g.NumVertices()); err != nil {
		return err
	}
	return D2GCPartial(g, colors)
}

// allColored checks that colors has one non-negative color for each of
// n vertices.
func allColored(colors []int32, n int) error {
	if len(colors) != n {
		return fmt.Errorf("verify: %d colors for %d vertices", len(colors), n)
	}
	for u, c := range colors {
		if c < 0 {
			return fmt.Errorf("verify: vertex %d uncolored (%d)", u, c)
		}
	}
	return nil
}

// ColorStats summarizes color-set cardinalities for the balancing
// study.
type ColorStats struct {
	// NumColors is the number of non-empty color sets.
	NumColors int
	// MaxColor is the largest color id in use.
	MaxColor int32
	// Cardinalities[c] is the size of color set c, indexed by color id
	// (may contain zeros for unused ids below MaxColor).
	Cardinalities []int
	// Avg and StdDev describe the non-empty color-set sizes — the
	// paper's Table VI "average/std-dev cardinality" columns.
	Avg    float64
	StdDev float64
	// MinSet and MaxSet are the smallest and largest non-empty sets.
	MinSet, MaxSet int
}

// Stats computes color-set statistics for any coloring (BGPC or D2GC).
func Stats(colors []int32) ColorStats {
	var s ColorStats
	maxCol := int32(-1)
	for _, c := range colors {
		if c > maxCol {
			maxCol = c
		}
	}
	s.MaxColor = maxCol
	if maxCol < 0 {
		return s
	}
	s.Cardinalities = make([]int, maxCol+1)
	for _, c := range colors {
		if c >= 0 {
			s.Cardinalities[c]++
		}
	}
	var sum, sumSq float64
	s.MinSet = math.MaxInt
	for _, card := range s.Cardinalities {
		if card == 0 {
			continue
		}
		s.NumColors++
		sum += float64(card)
		sumSq += float64(card) * float64(card)
		if card < s.MinSet {
			s.MinSet = card
		}
		if card > s.MaxSet {
			s.MaxSet = card
		}
	}
	if s.NumColors == 0 {
		s.MinSet = 0
		return s
	}
	n := float64(s.NumColors)
	s.Avg = sum / n
	variance := sumSq/n - s.Avg*s.Avg
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	return s
}

// SortedCardinalities returns the non-empty color-set sizes in
// non-increasing order — the series plotted in the paper's Figure 3.
func (s ColorStats) SortedCardinalities() []int {
	out := make([]int, 0, s.NumColors)
	for _, card := range s.Cardinalities {
		if card > 0 {
			out = append(out, card)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
