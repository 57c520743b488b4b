// Package compress implements sparse-Jacobian estimation by compressed
// finite differences — the numerical-optimization use case that
// motivates BGPC in the paper (Curtis–Powell–Reid seeding; see
// Gebremedhin, Manne, Pothen, "What color is your Jacobian?", SIAM
// Review 2005).
//
// Given the sparsity pattern of a Jacobian J ∈ R^{m×n} as a bipartite
// graph (rows = nets, columns = vertices) and a valid BGPC coloring of
// the columns, all columns of one color are structurally orthogonal and
// can share a single directional difference: J·d for the 0/1 seed
// vector d of the color group recovers every nonzero of those columns
// directly. The number of function evaluations drops from n+1 to
// #colors+1.
package compress

import (
	"fmt"

	"bgpc/internal/bipartite"
)

// Pattern couples a Jacobian sparsity structure with a column coloring.
type Pattern struct {
	g         *bipartite.Graph
	colors    []int32
	numGroups int32
}

// NewPattern validates that colors is a proper partial coloring of g's
// columns and returns the compression pattern. Validity matters: with
// two same-colored columns sharing a row, recovery would silently sum
// unrelated entries.
func NewPattern(g *bipartite.Graph, colors []int32) (*Pattern, error) {
	if len(colors) != g.NumVertices() {
		return nil, fmt.Errorf("compress: %d colors for %d columns", len(colors), g.NumVertices())
	}
	maxColor := int32(-1)
	for j, c := range colors {
		if c < 0 {
			return nil, fmt.Errorf("compress: column %d uncolored", j)
		}
		if c > maxColor {
			maxColor = c
		}
	}
	// Per-row duplicate-color check (the BGPC validity condition).
	lastSeen := make([]int32, maxColor+1)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	for v := int32(0); int(v) < g.NumNets(); v++ {
		for _, u := range g.Vtxs(v) {
			c := colors[u]
			if lastSeen[c] == v {
				return nil, fmt.Errorf("compress: columns of color %d collide in row %d", c, v)
			}
			lastSeen[c] = v
		}
	}
	return &Pattern{g: g, colors: colors, numGroups: maxColor + 1}, nil
}

// Groups returns the number of seed vectors (= max color id + 1; unused
// ids cost one wasted evaluation each, so compact colorings are best).
func (p *Pattern) Groups() int { return int(p.numGroups) }

// Rows and Cols return the Jacobian dimensions.
func (p *Pattern) Rows() int { return p.g.NumNets() }
func (p *Pattern) Cols() int { return p.g.NumVertices() }

// Seed returns the 0/1 seed vector of group c: entry j is 1 iff column
// j has color c.
func (p *Pattern) Seed(c int32) []float64 {
	d := make([]float64, p.Cols())
	for j, cj := range p.colors {
		if cj == c {
			d[j] = 1
		}
	}
	return d
}

// Jacobian is the recovered sparse Jacobian in net-major (CSR) layout
// parallel to the pattern graph's adjacency: Value(i, j) is defined for
// every structural nonzero (i, j).
type Jacobian struct {
	g      *bipartite.Graph
	values []float64 // parallel to the net-major adjacency
	offset []int64
}

// Value returns J[i][j] for a structural nonzero, or 0 otherwise.
func (j *Jacobian) Value(row, col int32) float64 {
	vt := j.g.Vtxs(row)
	lo, hi := 0, len(vt)
	for lo < hi {
		mid := (lo + hi) / 2
		if vt[mid] < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(vt) && vt[lo] == col {
		return j.values[j.offset[row]+int64(lo)]
	}
	return 0
}

// Row returns the column ids and values of row i (aliases internal
// storage; do not modify).
func (j *Jacobian) Row(i int32) ([]int32, []float64) {
	vt := j.g.Vtxs(i)
	return vt, j.values[j.offset[i] : j.offset[i]+int64(len(vt))]
}

// Evaluator computes y = F(x). Implementations must not retain x or y.
type Evaluator func(x []float64, y []float64)

// Forward estimates the Jacobian of eval at x by compressed forward
// differences with step eps: Groups()+1 evaluations of eval.
func (p *Pattern) Forward(eval Evaluator, x []float64, eps float64) (*Jacobian, error) {
	if len(x) != p.Cols() {
		return nil, fmt.Errorf("compress: x has length %d, want %d", len(x), p.Cols())
	}
	if eps <= 0 {
		return nil, fmt.Errorf("compress: non-positive step %v", eps)
	}
	m, n := p.Rows(), p.Cols()
	f0 := make([]float64, m)
	eval(x, f0)
	fp := make([]float64, m)
	xp := make([]float64, n)

	jac := p.newJacobian()
	for c := int32(0); c < p.numGroups; c++ {
		copy(xp, x)
		used := false
		for j := 0; j < n; j++ {
			if p.colors[j] == c {
				xp[j] += eps
				used = true
			}
		}
		if !used {
			continue
		}
		eval(xp, fp)
		p.scatter(jac, c, func(i int32) float64 { return (fp[i] - f0[i]) / eps })
	}
	return jac, nil
}

func (p *Pattern) newJacobian() *Jacobian {
	g := p.g
	offset := make([]int64, g.NumNets()+1)
	for v := int32(0); int(v) < g.NumNets(); v++ {
		offset[v+1] = offset[v] + int64(g.NetDeg(v))
	}
	return &Jacobian{
		g:      g,
		values: make([]float64, offset[g.NumNets()]),
		offset: offset,
	}
}

// scatter writes the difference quotient diff(i) into every structural
// nonzero (i, j) whose column j has color c. BGPC validity guarantees
// at most one such column per row, making the recovery direct.
func (p *Pattern) scatter(jac *Jacobian, c int32, diff func(i int32) float64) {
	g := p.g
	for i := int32(0); int(i) < g.NumNets(); i++ {
		vt := g.Vtxs(i)
		for k, j := range vt {
			if p.colors[j] == c {
				jac.values[jac.offset[i]+int64(k)] = diff(i)
			}
		}
	}
}
