package verify

import (
	"math"
	"strings"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/graph"
)

func bip(t *testing.T) *bipartite.Graph {
	t.Helper()
	g, err := bipartite.FromNetLists(4, [][]int32{{0, 1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBGPCValid(t *testing.T) {
	g := bip(t)
	if err := BGPC(g, []int32{0, 1, 2, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestBGPCDetectsConflict(t *testing.T) {
	g := bip(t)
	err := BGPC(g, []int32{0, 1, 0, 1})
	if err == nil || !strings.Contains(err.Error(), "net 0") {
		t.Fatalf("err = %v", err)
	}
}

func TestBGPCDetectsUncolored(t *testing.T) {
	g := bip(t)
	if err := BGPC(g, []int32{0, 1, 2, -1}); err == nil {
		t.Fatal("uncolored accepted")
	}
}

func TestBGPCDetectsLengthMismatch(t *testing.T) {
	g := bip(t)
	if err := BGPC(g, []int32{0, 1}); err == nil {
		t.Fatal("short slice accepted")
	}
}

func TestD2GCValid(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := D2GC(g, []int32{0, 1, 2, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestD2GCDetectsDistance1Conflict(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := D2GC(g, []int32{3, 3}); err == nil {
		t.Fatal("distance-1 conflict accepted")
	}
}

func TestD2GCDetectsDistance2Conflict(t *testing.T) {
	// 0-1-2 path: 0 and 2 are distance 2 apart.
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := D2GC(g, []int32{0, 1, 0}); err == nil {
		t.Fatal("distance-2 conflict accepted")
	}
}

func TestD2GCDetectsUncoloredAndLength(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := D2GC(g, []int32{0, -1}); err == nil {
		t.Fatal("uncolored accepted")
	}
	if err := D2GC(g, []int32{0}); err == nil {
		t.Fatal("short slice accepted")
	}
}

func TestStats(t *testing.T) {
	s := Stats([]int32{0, 0, 0, 1, 1, 3})
	if s.NumColors != 3 {
		t.Fatalf("NumColors = %d", s.NumColors)
	}
	if s.MaxColor != 3 {
		t.Fatalf("MaxColor = %d", s.MaxColor)
	}
	if s.Cardinalities[0] != 3 || s.Cardinalities[1] != 2 || s.Cardinalities[2] != 0 || s.Cardinalities[3] != 1 {
		t.Fatalf("Cardinalities = %v", s.Cardinalities)
	}
	if s.MinSet != 1 || s.MaxSet != 3 {
		t.Fatalf("min/max = %d/%d", s.MinSet, s.MaxSet)
	}
	if s.Avg != 2 {
		t.Fatalf("Avg = %v", s.Avg)
	}
	// Cardinalities 3,2,1: variance = (9+4+1)/3 - 4 = 2/3.
	if math.Abs(s.StdDev-math.Sqrt(2.0/3.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", s.StdDev)
	}
}

func TestStatsEmptyAndUncolored(t *testing.T) {
	s := Stats(nil)
	if s.NumColors != 0 || s.MaxColor != -1 {
		t.Fatalf("%+v", s)
	}
	s = Stats([]int32{-1, -1})
	if s.NumColors != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestSortedCardinalities(t *testing.T) {
	s := Stats([]int32{0, 0, 1, 5, 5, 5})
	got := s.SortedCardinalities()
	want := []int{3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
