package mtx

import (
	"bufio"
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"bgpc/internal/limits"
)

// FuzzRead hardens the MatrixMarket parser: arbitrary input must never
// panic, and any input that parses must round-trip through Write/Read
// to an identical structure.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.5\n3 1 -2\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 0 1\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 7\n",
		"% not a banner\n1 1 1\n1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n0 0 0\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // malformed input rejected: fine
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("reparse of own output: %v", err)
		}
		if g2.NumNets() != g.NumNets() || g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed dimensions: %dx%d/%d vs %dx%d/%d",
				g.NumNets(), g.NumVertices(), g.NumEdges(),
				g2.NumNets(), g2.NumVertices(), g2.NumEdges())
		}
	})
}

// FuzzReadHeader attacks the untrusted header path specifically:
// banners, comment runs, and size lines of arbitrary shape must either
// produce a consistent Info or a typed error — never a panic, and
// never an Info that violates the configured caps.
func FuzzReadHeader(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2000000 2000000 1000000000000\n",
		"%%MatrixMarket matrix coordinate pattern general\n9223372036854775807 1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n-1 -1 -1\n",
		"%%MatrixMarket matrix coordinate pattern general\n1 1 99999999999999999999999\n",
		"%%MatrixMarket matrix coordinate pattern general\n% c\n% c\n1 1 0\n",
		"%%MatrixMarket matrix coordinate pattern general\n1 1 1 1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n\x00 \x00 \x00\n",
		"%%MatrixMarket matrix coordinate pattern general",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 1\n",
		"%%MatrixMarket\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	lim := limits.ParseLimits{MaxRows: 1 << 20, MaxCols: 1 << 20, MaxNNZ: 1 << 30, MaxLineBytes: 256}
	f.Fuzz(func(t *testing.T, input string) {
		info, err := PeekInfo(input, lim)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("untyped header error: %v", err)
			}
			return
		}
		if info.Rows < 0 || info.Cols < 0 || info.NNZ < 0 {
			t.Fatalf("accepted negative dims: %+v", info)
		}
		if info.Rows > lim.MaxRows || info.Cols > lim.MaxCols || info.NNZ > lim.MaxNNZ {
			t.Fatalf("accepted dims beyond caps: %+v", info)
		}
	})
}

// FuzzReadEntryPoints checks the two line sources against each other:
// the string and reader entry points must build the same graph or fail
// with the same error class, and PeekInfo must agree with the header
// parse over the reader source. lineCap sets a small MaxLineBytes so
// the line caps are exercised on banners, comments and entries alike.
func FuzzReadEntryPoints(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n",
		"%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 2\n1 1 1.5\n3 1 -2\n",
		"%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\r\n2 1 0 1\r\n",
		"%%MatrixMarket matrix coordinate integer general\n2 2 2\n\n1\t1  7\n% c\n2\v2\f-1",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 \u0085\n",
		"%%MatrixMarket matrix coordinate pattern general\n2000000 2000000 1000000000000\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1" + strings.Repeat(" ", 70) + "\n",
		"%%MatrixMarket matrix coordinate pattern general",
		"",
	}
	for i, s := range seeds {
		f.Add(s, uint8(i*29))
	}
	f.Fuzz(func(t *testing.T, input string, lineCap uint8) {
		lim := limits.ParseLimits{MaxRows: 1 << 10, MaxCols: 1 << 10, MaxNNZ: 1 << 16, MaxLineBytes: 8 + int(lineCap)}
		gs, errS := ParseString(input, lim)
		gr, errR := ReadLimited(strings.NewReader(input), lim)
		if errClass(errS) != errClass(errR) {
			t.Fatalf("string source: %v; reader source: %v", errS, errR)
		}
		if errS == nil {
			if gs.NumNets() != gr.NumNets() || gs.NumVertices() != gr.NumVertices() ||
				!slices.Equal(gs.Edges(), gr.Edges()) {
				t.Fatalf("string and reader sources built different graphs")
			}
		}

		info, errP := PeekInfo(input, lim)
		h, errH := readHeader(&lines{br: bufio.NewReader(strings.NewReader(input)), max: lim.MaxLineBytes}, lim.WithDefaults())
		if errClass(errP) != errClass(errH) {
			t.Fatalf("PeekInfo: %v; reader header parse: %v", errP, errH)
		}
		if errP == nil && (info.Rows != h.rows || info.Cols != h.cols || info.NNZ != h.nnz ||
			info.Field != h.field || info.Symmetric != (h.symmetry != "general")) {
			t.Fatalf("PeekInfo %+v disagrees with header %+v", info, h)
		}
		if errS == nil && (errP != nil || info.Rows != gs.NumNets() || info.Cols != gs.NumVertices()) {
			t.Fatalf("document parses but PeekInfo says %+v, %v", info, errP)
		}
	})
}

// errClass names the error class a serving layer maps err to.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTooLarge):
		return "too large"
	case errors.Is(err, ErrFormat):
		return "format"
	}
	return "other: " + err.Error()
}
