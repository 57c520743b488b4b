package delta

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
)

func TestEdgeListRoundTrip(t *testing.T) {
	in := EdgeList{{Net: 0, Vtx: 3}, {Net: 7, Vtx: 1}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if got, want := string(raw), "[[0,3],[7,1]]"; got != want {
		t.Fatalf("wire form %s, want %s", got, want)
	}
	var out EdgeList
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip lost data: %v", out)
	}
}

func TestEdgeListStrictRejections(t *testing.T) {
	cases := []string{
		`[[1]]`,             // too few elements
		`[[1,2,3]]`,         // too many elements
		`[[1,"a"]]`,         // non-integer
		`[[-1,2]]`,          // negative endpoint
		`[[1,2147483648]]`,  // above int32
		`[[1.5,2]]`,         // non-integral
		`[1,2]`,             // flat list, not pairs
		`{"net":1,"vtx":2}`, // object, not array
	}
	for _, c := range cases {
		var l EdgeList
		err := json.Unmarshal([]byte(c), &l)
		if err == nil {
			t.Errorf("input %s accepted, want rejection", c)
			continue
		}
		if !errors.Is(err, ErrInvalid) && !strings.Contains(err.Error(), "delta") {
			t.Errorf("input %s: error %v does not identify as a delta rejection", c, err)
		}
	}
}

func TestValidateCaps(t *testing.T) {
	d := Delta{Insert: make(EdgeList, limits.MaxDeltaEdges+1)}
	if err := d.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("over-cap insert list: err = %v, want ErrInvalid", err)
	}
	d = Delta{Remove: make(EdgeList, limits.MaxDeltaEdges+1)}
	if err := d.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("over-cap remove list: err = %v, want ErrInvalid", err)
	}
}

func TestValidateOverlapRejected(t *testing.T) {
	d := Delta{
		Insert: EdgeList{{Net: 1, Vtx: 2}, {Net: 3, Vtx: 4}},
		Remove: EdgeList{{Net: 3, Vtx: 4}},
	}
	if err := d.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("overlapping delta: err = %v, want ErrInvalid", err)
	}
	d.Remove = EdgeList{{Net: 4, Vtx: 3}}
	if err := d.Validate(); err != nil {
		t.Fatalf("disjoint delta rejected: %v", err)
	}
}

func TestApplyRangeErrorIsInvalid(t *testing.T) {
	g, err := bipartite.FromEdges(2, 2, []bipartite.Edge{{Net: 0, Vtx: 0}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Apply(g, Delta{Insert: EdgeList{{Net: 5, Vtx: 0}}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("out-of-range insert: err = %v, want ErrInvalid", err)
	}
}

func TestApplyFailpoint(t *testing.T) {
	if err := failpoint.ArmFromSpec(FPApply + "=err@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Reset()
	g, err := bipartite.FromEdges(2, 2, []bipartite.Edge{{Net: 0, Vtx: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Apply(g, Delta{}); err == nil {
		t.Fatal("armed delta.apply did not fault")
	}
	// Point auto-disarmed after one hit; the next apply succeeds.
	if _, _, _, err := Apply(g, Delta{}); err != nil {
		t.Fatalf("apply after auto-disarm: %v", err)
	}
}

func TestDirtySets(t *testing.T) {
	d := Delta{Insert: EdgeList{{Net: 2, Vtx: 5}, {Net: 3, Vtx: 5}, {Net: 2, Vtx: 7}}}
	gotB := d.DirtyBGPC()
	if len(gotB) != 2 || gotB[0] != 5 || gotB[1] != 7 {
		t.Fatalf("DirtyBGPC = %v, want [5 7]", gotB)
	}
	// A mirrored (d2) delta dirties both endpoints of every new edge.
	m := Delta{Insert: EdgeList{{Net: 2, Vtx: 5}, {Net: 5, Vtx: 2}, {Net: 3, Vtx: 7}, {Net: 7, Vtx: 3}}}
	want := map[int32]bool{2: true, 3: true, 5: true, 7: true}
	gotD := m.DirtyBGPC()
	if len(gotD) != len(want) {
		t.Fatalf("mirrored DirtyBGPC = %v, want the 4 distinct endpoints", gotD)
	}
	for _, v := range gotD {
		if !want[v] {
			t.Fatalf("mirrored DirtyBGPC = %v contains unexpected %d", gotD, v)
		}
	}
	if n := len((Delta{}).DirtyBGPC()); n != 0 {
		t.Fatalf("empty delta has %d dirty vertices", n)
	}
}

func TestWarmStartValidation(t *testing.T) {
	g, err := bipartite.FromEdges(2, 3, []bipartite.Edge{{Net: 0, Vtx: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecolorBGPC(g, []int32{0, 0}, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short base accepted: %v", err)
	}
	if _, _, err := RecolorBGPC(g, []int32{0, 1, 0}, []int32{3}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("out-of-range dirty vertex accepted: %v", err)
	}
}
