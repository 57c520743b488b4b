package core

import (
	"fmt"

	"bgpc/internal/bipartite"
)

// Recolor performs one Culberson-style iterated-greedy pass over an
// existing valid BGPC coloring: vertices are re-colored sequentially,
// color classes visited from the largest color id downwards (vertices
// within a class in ascending id). Re-coloring whole classes together
// guarantees the new coloring never uses more colors than the old one,
// and in practice compacts colorings produced by the optimistic
// parallel algorithms — the shared-memory analogue of the iterative
// recoloring studied for distributed coloring (Sarıyüce, Saule,
// Çatalyürek, 2011/2014, cited in the paper's related work).
//
// The input slice is not modified; the improved coloring is returned
// with its distinct-color count.
func Recolor(g *bipartite.Graph, colors []int32) ([]int32, int, error) {
	n := g.NumVertices()
	if len(colors) != n {
		return nil, 0, fmt.Errorf("core: Recolor: %d colors for %d vertices", len(colors), n)
	}
	maxColor := int32(-1)
	for u, c := range colors {
		if c < 0 {
			return nil, 0, fmt.Errorf("core: Recolor: vertex %d uncolored", u)
		}
		if c > maxColor {
			maxColor = c
		}
	}
	if n == 0 {
		return nil, 0, nil
	}

	// Bucket vertices by color, then emit classes from the highest
	// color downwards. Greedy re-coloring in this order can only reuse
	// or lower ids (proof: when a class-c vertex is processed, every
	// previously processed vertex held a color ≥ c in the old coloring,
	// so first-fit below c stays available unless blocked by vertices
	// that themselves fit below their old color).
	// Class k of the order holds color maxColor-k; start[k] is the
	// class's next free slot.
	start := make([]int, maxColor+2)
	for _, c := range colors {
		start[maxColor-c+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	order := make([]int32, n)
	for u, c := range colors {
		order[start[maxColor-c]] = int32(u)
		start[maxColor-c]++
	}
	res := Sequential(g, order)
	return res.Colors, res.NumColors, nil
}

// RecolorToConvergence applies Recolor repeatedly until the color count
// stops improving or maxRounds passes complete, returning the final
// coloring, its color count, and the number of rounds executed.
func RecolorToConvergence(g *bipartite.Graph, colors []int32, maxRounds int) ([]int32, int, int, error) {
	if maxRounds < 1 {
		maxRounds = 1
	}
	cur := colors
	best := distinctColors(colors, NewForbidden(ForbiddenSize(g)))
	rounds := 0
	for r := 0; r < maxRounds; r++ {
		next, count, err := Recolor(g, cur)
		if err != nil {
			return nil, 0, rounds, err
		}
		rounds++
		cur = next
		if count >= best {
			best = count
			break
		}
		best = count
	}
	return cur, best, rounds, nil
}
