package core

// FirstFit returns the smallest non-forbidden color (Algorithm 2,
// lines 6–9).
func FirstFit(f *Forbidden) int32 {
	col := int32(0)
	for f.Has(col) {
		col++
	}
	return col
}

// FirstFitFrom returns the smallest non-forbidden color ≥ start.
func FirstFitFrom(f *Forbidden, start int32) int32 {
	col := start
	for f.Has(col) {
		col++
	}
	return col
}

// ReverseFit returns the largest non-forbidden color ≤ start, or −1 if
// every color in [0, start] is forbidden.
func ReverseFit(f *Forbidden, start int32) int32 {
	col := start
	for col >= 0 && f.Has(col) {
		col--
	}
	return col
}

// Policy carries the thread-private state of the balancing heuristics.
// The zero value is ready for use at the start of a coloring phase
// (colmax ← 0, colnext ← 0, per Algorithms 11 and 12).
type Policy struct {
	balance Balance
	colmax  int32
	colnext int32
}

// Pick selects a color given the populated Forbidden set f. id is the
// vertex (or net-local vertex) id whose parity drives B1's alternation;
// it is ignored by the other policies.
// The returned color is guaranteed non-forbidden. Callers that share
// one forbidden set across several picks (net-based phases) must add
// the returned color to f themselves.
func (p *Policy) Pick(f *Forbidden, id int32) int32 {
	switch p.balance {
	case BalanceB1:
		return p.pickB1(f, id)
	case BalanceB2:
		return p.pickB2(f)
	default:
		return FirstFit(f)
	}
}

// pickB1 is Algorithm 11: even ids reverse-fit down from colmax and
// fall back to first-fit above colmax; odd ids first-fit from zero.
func (p *Policy) pickB1(f *Forbidden, id int32) int32 {
	var col int32
	if id%2 == 0 {
		col = ReverseFit(f, p.colmax)
		if col == -1 {
			col = FirstFitFrom(f, p.colmax+1)
		}
	} else {
		col = FirstFit(f)
	}
	if col > p.colmax {
		p.colmax = col
	}
	return col
}

// pickB2 is Algorithm 12: first-fit from colnext, restarting from zero
// past colmax; colnext then rotates through [0, colmax/3+1 …].
func (p *Policy) pickB2(f *Forbidden) int32 {
	col := FirstFitFrom(f, p.colnext)
	if col > p.colmax {
		col = FirstFit(f)
	}
	if col > p.colmax {
		p.colmax = col
	}
	p.colnext = col + 1
	if floor := p.colmax/3 + 1; p.colnext > floor {
		p.colnext = floor
	}
	return col
}
