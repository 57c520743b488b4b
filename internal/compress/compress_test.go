package compress

import (
	"math"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/verify"
)

// tridiag returns the n×n tridiagonal pattern and the quadratic test
// map F_i(x) = x_{i-1}·x_i + x_i² − x_{i+1} with analytic Jacobian.
func tridiag(t testing.TB, n int) (*bipartite.Graph, Evaluator, func(x []float64, i, j int) float64) {
	t.Helper()
	var edges []bipartite.Edge
	for i := 0; i < n; i++ {
		for _, j := range []int{i - 1, i, i + 1} {
			if j >= 0 && j < n {
				edges = append(edges, bipartite.Edge{Net: int32(i), Vtx: int32(j)})
			}
		}
	}
	g, err := bipartite.FromEdges(n, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(x []float64, y []float64) {
		for i := 0; i < n; i++ {
			v := x[i] * x[i]
			if i > 0 {
				v += x[i-1] * x[i]
			}
			if i < n-1 {
				v -= x[i+1]
			}
			y[i] = v
		}
	}
	deriv := func(x []float64, i, j int) float64 {
		switch {
		case j == i-1:
			return x[i]
		case j == i:
			d := 2 * x[i]
			if i > 0 {
				d += x[i-1]
			}
			return d
		case j == i+1:
			return -1
		default:
			return 0
		}
	}
	return g, eval, deriv
}

func testX(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + 0.01*float64(i%13)
	}
	return x
}

func coloredPattern(t testing.TB, g *bipartite.Graph) *Pattern {
	t.Helper()
	res := core.Sequential(g, nil)
	if err := verify.BGPC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	p, err := NewPattern(g, res.Colors)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPatternRejectsInvalid(t *testing.T) {
	g, _, _ := tridiag(t, 5)
	if _, err := NewPattern(g, []int32{0, 1}); err == nil {
		t.Fatal("short colors accepted")
	}
	if _, err := NewPattern(g, []int32{0, 1, -1, 0, 1}); err == nil {
		t.Fatal("uncolored accepted")
	}
	// Columns 0 and 1 share row 0; same color must be rejected.
	if _, err := NewPattern(g, []int32{0, 0, 1, 2, 1}); err == nil {
		t.Fatal("conflicting coloring accepted")
	}
}

func TestGroupsAndSeeds(t *testing.T) {
	g, _, _ := tridiag(t, 6)
	p := coloredPattern(t, g)
	if p.Groups() != 3 {
		t.Fatalf("groups = %d, want 3 (tridiagonal)", p.Groups())
	}
	if p.Rows() != 6 || p.Cols() != 6 {
		t.Fatalf("dims %dx%d", p.Rows(), p.Cols())
	}
	// Seeds partition the columns.
	total := 0
	for c := int32(0); c < 3; c++ {
		for _, v := range p.Seed(c) {
			if v == 1 {
				total++
			} else if v != 0 {
				t.Fatalf("seed entry %v", v)
			}
		}
	}
	if total != 6 {
		t.Fatalf("seed union covers %d columns", total)
	}
}

func TestForwardRecoversJacobian(t *testing.T) {
	const n = 50
	g, eval, deriv := tridiag(t, n)
	p := coloredPattern(t, g)
	x := testX(n)
	jac, err := p.Forward(eval, x, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := 0.0
	for i := int32(0); i < n; i++ {
		cols, vals := jac.Row(i)
		for k, j := range cols {
			want := deriv(x, int(i), int(j))
			if d := math.Abs(vals[k] - want); d > maxErr {
				maxErr = d
			}
		}
	}
	if maxErr > 1e-5 {
		t.Fatalf("forward-difference error %v", maxErr)
	}
}

func TestJacobianValueLookup(t *testing.T) {
	g, eval, _ := tridiag(t, 10)
	p := coloredPattern(t, g)
	jac, err := p.Forward(eval, testX(10), 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if v := jac.Value(3, 4); v == 0 {
		t.Fatal("structural nonzero returned 0")
	}
	if v := jac.Value(0, 9); v != 0 {
		t.Fatalf("structural zero returned %v", v)
	}
}

func TestForwardValidatesArgs(t *testing.T) {
	g, eval, _ := tridiag(t, 4)
	p := coloredPattern(t, g)
	if _, err := p.Forward(eval, make([]float64, 3), 1e-7); err == nil {
		t.Fatal("short x accepted")
	}
	if _, err := p.Forward(eval, make([]float64, 4), 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestGapColorIdsSkipEvaluations(t *testing.T) {
	// A coloring with an unused id (0 and 2, never 1) must still work.
	g, err := bipartite.FromNetLists(2, [][]int32{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPattern(g, []int32{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Groups() != 3 {
		t.Fatalf("groups = %d", p.Groups())
	}
	eval := func(x, y []float64) {
		y[0] = x[0] + 2*x[1]
		y[1] = 3 * x[1]
	}
	jac, err := p.Forward(eval, []float64{1, 1}, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		i, j int32
		want float64
	}{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}} {
		if got := jac.Value(tc.i, tc.j); math.Abs(got-tc.want) > 1e-5 {
			t.Fatalf("J[%d][%d] = %v, want %v", tc.i, tc.j, got, tc.want)
		}
	}
}

func BenchmarkForward(b *testing.B) {
	g, eval, _ := tridiag(b, 2000)
	res := core.Sequential(g, nil)
	p, err := NewPattern(g, res.Colors)
	if err != nil {
		b.Fatal(err)
	}
	x := testX(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Forward(eval, x, 1e-7); err != nil {
			b.Fatal(err)
		}
	}
}
