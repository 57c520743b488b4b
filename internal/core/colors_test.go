package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewColorsAllUncolored(t *testing.T) {
	c := NewColors(10)
	if c.Len() != 10 {
		t.Fatalf("Len = %d", c.Len())
	}
	for u := int32(0); u < 10; u++ {
		if c.Get(u) != Uncolored {
			t.Fatalf("vertex %d not Uncolored", u)
		}
	}
}

func TestColorsSetGet(t *testing.T) {
	c := NewColors(4)
	c.Set(2, 7)
	if c.Get(2) != 7 {
		t.Fatalf("Get = %d", c.Get(2))
	}
	if c.Raw()[2] != 7 {
		t.Fatalf("Raw mismatch")
	}
}

func TestForbiddenBasics(t *testing.T) {
	f := NewForbidden(8)
	f.Reset()
	if f.Has(3) {
		t.Fatal("fresh set has 3")
	}
	f.Add(3)
	if !f.Has(3) {
		t.Fatal("add(3) not visible")
	}
	f.Reset()
	if f.Has(3) {
		t.Fatal("reset did not clear")
	}
}

func TestForbiddenEpochsIndependent(t *testing.T) {
	f := NewForbidden(4)
	for epoch := 0; epoch < 100; epoch++ {
		f.Reset()
		col := int32(epoch % 4)
		if f.Has(col) {
			t.Fatalf("epoch %d: stale mark", epoch)
		}
		f.Add(col)
		if !f.Has(col) {
			t.Fatalf("epoch %d: mark lost", epoch)
		}
	}
}

func TestForbiddenGrow(t *testing.T) {
	f := NewForbidden(2)
	f.Reset()
	f.Add(100) // beyond initial size
	if !f.Has(100) {
		t.Fatal("grown mark lost")
	}
	if f.Has(99) {
		t.Fatal("phantom mark after grow")
	}
	f.Add(0)
	if !f.Has(0) || !f.Has(100) {
		t.Fatal("marks lost after grow")
	}
}

func TestForbiddenHasOutOfRange(t *testing.T) {
	f := NewForbidden(2)
	f.Reset()
	if f.Has(1000) {
		t.Fatal("out-of-range color reported Forbidden")
	}
}

func TestForbiddenZeroSize(t *testing.T) {
	f := NewForbidden(0)
	f.Reset()
	f.Add(0)
	if !f.Has(0) {
		t.Fatal("zero-size Forbidden set unusable")
	}
}

func TestForbiddenStampWrap(t *testing.T) {
	f := NewForbidden(4)
	f.stamp = math.MaxInt32 - 1 // next resets approach and cross the overflow
	f.Reset()
	f.Add(1)
	if !f.Has(1) {
		t.Fatal("mark lost near wrap")
	}
	f.Reset() // stamp wraps; array must be re-zeroed
	if f.Has(1) {
		t.Fatal("stale mark visible after stamp wrap")
	}
	f.Add(2)
	if !f.Has(2) {
		t.Fatal("post-wrap add lost")
	}
}

func TestAddNbrsUncoloredForbidsNothing(t *testing.T) {
	g := tinyGraph(t) // vertex 3 shares net 1 with 2 and net 2 with 1
	f := NewForbidden(4)
	f.Reset()
	f.addNbrs(g, 3, &Colors{c: []int32{Uncolored, Uncolored, Uncolored, 2}}, fullScan)
	for col := int32(0); col < 4; col++ {
		if f.Has(col) {
			t.Fatalf("Uncolored neighbours (or the vertex's own color) forbid %d", col)
		}
	}
	if got := FirstFit(f); got != 0 {
		t.Fatalf("FirstFit = %d, want 0", got)
	}
}

func TestAddNbrsGrowsPastBound(t *testing.T) {
	g := tinyGraph(t)
	colors := &Colors{c: []int32{Uncolored, 40, 0, Uncolored}}
	for _, b := range []Balance{BalanceB1, BalanceB2} {
		for _, w := range []int32{3, 0} { // B1 reverse-fits even ids, first-fits odd ones
			f := NewForbidden(1)
			f.Reset()
			f.addNbrs(g, w, colors, fullScan)
			if !f.Has(40) || !f.Has(0) {
				t.Fatalf("%v, vertex %d: neighbour colors 40 and 0 not both forbidden", b, w)
			}
			pol := Policy{balance: b}
			if col := pol.Pick(f, w); col < 0 || f.Has(col) {
				t.Fatalf("%v, vertex %d: picked forbidden color %d", b, w, col)
			}
		}
	}
}

func TestForbiddenProperty(t *testing.T) {
	// After reset, has(col) is true iff col was added this epoch.
	check := func(adds []uint8, probe uint8) bool {
		f := NewForbidden(16)
		f.Reset()
		want := false
		for _, a := range adds {
			f.Add(int32(a))
			if a == probe {
				want = true
			}
		}
		return f.Has(int32(probe)) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFit(t *testing.T) {
	f := NewForbidden(8)
	f.Reset()
	if got := FirstFit(f); got != 0 {
		t.Fatalf("empty FirstFit = %d", got)
	}
	f.Add(0)
	f.Add(1)
	f.Add(3)
	if got := FirstFit(f); got != 2 {
		t.Fatalf("FirstFit = %d, want 2", got)
	}
	if got := FirstFitFrom(f, 3); got != 4 {
		t.Fatalf("FirstFitFrom(3) = %d, want 4", got)
	}
}

func TestReverseFit(t *testing.T) {
	f := NewForbidden(8)
	f.Reset()
	if got := ReverseFit(f, 5); got != 5 {
		t.Fatalf("empty ReverseFit = %d", got)
	}
	f.Add(5)
	f.Add(4)
	if got := ReverseFit(f, 5); got != 3 {
		t.Fatalf("ReverseFit = %d, want 3", got)
	}
	for col := int32(0); col <= 5; col++ {
		f.Add(col)
	}
	if got := ReverseFit(f, 5); got != -1 {
		t.Fatalf("exhausted ReverseFit = %d, want -1", got)
	}
}

func TestPolicyB1Alternates(t *testing.T) {
	p := Policy{balance: BalanceB1}
	f := NewForbidden(16)
	// Odd id: plain first-fit.
	f.Reset()
	f.Add(0)
	if got := p.Pick(f, 1); got != 1 {
		t.Fatalf("B1 odd pick = %d, want 1", got)
	}
	if p.colmax != 1 {
		t.Fatalf("colmax = %d, want 1", p.colmax)
	}
	// Even id: reverse from colmax.
	f.Reset()
	if got := p.Pick(f, 2); got != 1 {
		t.Fatalf("B1 even pick = %d, want colmax 1", got)
	}
	// Even id with [0, colmax] exhausted: first-fit above colmax.
	f.Reset()
	f.Add(0)
	f.Add(1)
	if got := p.Pick(f, 4); got != 2 {
		t.Fatalf("B1 even overflow pick = %d, want 2", got)
	}
	if p.colmax != 2 {
		t.Fatalf("colmax = %d, want 2", p.colmax)
	}
}

func TestPolicyB2Rotates(t *testing.T) {
	p := Policy{balance: BalanceB2}
	f := NewForbidden(16)
	f.Reset()
	if got := p.Pick(f, 0); got != 0 {
		t.Fatalf("first B2 pick = %d, want 0", got)
	}
	// colnext = min(1, 0/3+1) = 1, colmax = 0: picking again from
	// colnext=1 exceeds colmax, so restart from 0; 0 free.
	f.Reset()
	if got := p.Pick(f, 0); got != 0 {
		t.Fatalf("second B2 pick = %d, want 0 (restart)", got)
	}
	// Force growth: forbid 0, pick must take 1, raising colmax.
	f.Reset()
	f.Add(0)
	if got := p.Pick(f, 0); got != 1 {
		t.Fatalf("third B2 pick = %d, want 1", got)
	}
	if p.colmax != 1 {
		t.Fatalf("colmax = %d", p.colmax)
	}
}

func TestPolicyNonePicksFirstFit(t *testing.T) {
	p := Policy{balance: BalanceNone}
	f := NewForbidden(4)
	f.Reset()
	f.Add(0)
	if got := p.Pick(f, 0); got != 1 {
		t.Fatalf("pick = %d", got)
	}
}

func TestPolicyPickNeverForbidden(t *testing.T) {
	check := func(balance uint8, adds []uint8, id int32) bool {
		p := Policy{balance: Balance(balance % 3)}
		f := NewForbidden(32)
		f.Reset()
		for _, a := range adds {
			f.Add(int32(a % 32))
		}
		col := p.Pick(f, id)
		return col >= 0 && !f.Has(col)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
