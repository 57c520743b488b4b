package mtx

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/limits"
)

// allocDelta returns the bytes allocated while running fn, measured
// from the runtime's cumulative TotalAlloc so GC cycles in between
// cannot hide anything.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// entryPoints are the two ways into the one parser: an io.Reader
// (files, colorize) and a document already in memory (the service).
// Every contract below must hold through both.
var entryPoints = []struct {
	name  string
	parse func(doc string, lim limits.ParseLimits) (*bipartite.Graph, error)
}{
	{"reader", func(doc string, lim limits.ParseLimits) (*bipartite.Graph, error) {
		return ReadLimited(strings.NewReader(doc), lim)
	}},
	{"string", ParseString},
}

// TestHostileHeaderBoundedAlloc is the acceptance check for untrusted
// headers: a ~60-byte file claiming a trillion nonzeros must be
// rejected while allocating well under 1 MiB. Before the streaming
// limits, Read pre-sized its edge slice from the header — this input
// was a one-line denial-of-service.
func TestHostileHeaderBoundedAlloc(t *testing.T) {
	hostile := "%%MatrixMarket matrix coordinate pattern general\n" +
		"2000000 2000000 1000000000000\n"
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			// Under default limits the trillion-edge claim trips MaxNNZ.
			var err error
			delta := allocDelta(func() {
				_, err = ep.parse(hostile, limits.DefaultParseLimits())
			})
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("err = %v, want ErrTooLarge", err)
			}
			if delta >= 1<<20 {
				t.Fatalf("rejecting hostile header allocated %d bytes, want < 1MiB", delta)
			}

			// Even with the nnz cap raised past the claim, the parser must
			// not trust the header: allocation grows with bytes actually
			// scanned (here: none), so the empty body fails cheaply with
			// ErrFormat.
			lim := limits.DefaultParseLimits()
			lim.MaxNNZ = 1 << 62
			delta = allocDelta(func() {
				_, err = ep.parse(hostile, lim)
			})
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("raised-cap err = %v, want ErrFormat (missing entries)", err)
			}
			if delta >= 1<<20 {
				t.Fatalf("parsing hostile header allocated %d bytes, want < 1MiB", delta)
			}
		})
	}
}

func TestHeaderCaps(t *testing.T) {
	lim := limits.ParseLimits{MaxRows: 100, MaxCols: 200, MaxNNZ: 1000, MaxLineBytes: 1 << 16}
	cases := map[string]string{
		"rows over cap": "%%MatrixMarket matrix coordinate pattern general\n101 10 5\n",
		"cols over cap": "%%MatrixMarket matrix coordinate pattern general\n10 201 5\n",
		"nnz over cap":  "%%MatrixMarket matrix coordinate pattern general\n100 200 1001\n",
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			for name, in := range cases {
				if _, err := ep.parse(in, lim); !errors.Is(err, ErrTooLarge) {
					t.Errorf("%s: err = %v, want ErrTooLarge", name, err)
				}
			}
			// At the caps exactly: admitted (and then fails only for the
			// missing entries, which is a format error, not a size one).
			atCap := "%%MatrixMarket matrix coordinate pattern general\n100 200 3\n1 1\n1 2\n1 3\n"
			if _, err := ep.parse(atCap, lim); err != nil {
				t.Fatalf("at-cap input rejected: %v", err)
			}
		})
	}
}

func TestInconsistentHeaderClaim(t *testing.T) {
	// nnz greater than rows×cols is impossible; reject it as malformed
	// before any entry is read.
	in := "%%MatrixMarket matrix coordinate pattern general\n3 3 10\n"
	if _, err := Read(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestOversizedLines(t *testing.T) {
	lim := limits.DefaultParseLimits()
	lim.MaxLineBytes = 64

	long := strings.Repeat("x", 200)
	cases := map[string]string{
		"long banner":  "%%MatrixMarket matrix coordinate pattern " + long + "\n1 1 1\n1 1\n",
		"long comment": "%%MatrixMarket matrix coordinate pattern general\n%" + long + "\n1 1 1\n1 1\n",
		"long size":    "%%MatrixMarket matrix coordinate pattern general\n1 1 1   " + long + "\n1 1\n",
		"long entry":   "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2   " + long + "\n",
		// Well-formed but for its length: only the line cap rejects it.
		"padded entry": "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1" + strings.Repeat(" ", 61) + "\n",
		"padded last":  "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1" + strings.Repeat(" ", 62),
	}
	// A line exactly at the cap, newline included, still parses.
	pad := strings.Repeat(" ", 60)
	ok := "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1" + pad + "\n"
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			for name, in := range cases {
				if _, err := ep.parse(in, lim); !errors.Is(err, ErrFormat) {
					t.Errorf("%s: err = %v, want ErrFormat", name, err)
				}
			}
			if _, err := ep.parse(ok, lim); err != nil {
				t.Fatalf("at-cap line rejected: %v", err)
			}
		})
	}
}

func TestPeekInfo(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real symmetric\n% note\n30 40 17\n1 1 2.5\n"
	info, err := PeekInfo(in, limits.DefaultParseLimits())
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 30 || info.Cols != 40 || info.NNZ != 17 {
		t.Fatalf("info = %+v", info)
	}
	if !info.Symmetric || info.Field != "real" {
		t.Fatalf("info = %+v", info)
	}

	// PeekInfo must reject the same hostile headers as ReadLimited
	// without reading a single entry line.
	big := "%%MatrixMarket matrix coordinate pattern general\n2000000 2000000 1000000000000\n"
	if _, err := PeekInfo(big, limits.DefaultParseLimits()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("hostile peek: err = %v, want ErrTooLarge", err)
	}
	if _, err := PeekInfo("%%nope\n", limits.DefaultParseLimits()); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad banner peek: err = %v, want ErrFormat", err)
	}
}

// TestLargeValidStillParses pins down that the caps do not reject
// honest inputs whose nnz merely exceeds the start-small hint.
func TestLargeValidStillParses(t *testing.T) {
	const n = 10000 // > the 4096-entry capHint clamp
	var sb strings.Builder
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", n, 1, n)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "%d 1\n", i)
	}
	g, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != n {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), n)
	}
}

// TestParseStringAllocs pins what an in-memory document costs: the
// string entry point slices lines and fields out of the document, so a
// 5-entry parse pays for its edge list and graph only, and a header
// peek for almost nothing. A 64 KiB read buffer on either path fails
// these ceilings.
func TestParseStringAllocs(t *testing.T) {
	doc := "%%MatrixMarket matrix coordinate pattern general\n% a comment\n" +
		"3 4 5\n1 1\n1 2\n2 3\n3 4\n3 1\n"
	lim := limits.DefaultParseLimits()
	const runs = 100
	parse := allocDelta(func() {
		for i := 0; i < runs; i++ {
			if _, err := ParseString(doc, lim); err != nil {
				t.Fatal(err)
			}
		}
	}) / runs
	if parse >= 8<<10 {
		t.Errorf("ParseString of a 5-entry document allocates %d bytes, want < 8 KiB", parse)
	}
	peek := allocDelta(func() {
		for i := 0; i < runs; i++ {
			if _, err := PeekInfo(doc, lim); err != nil {
				t.Fatal(err)
			}
		}
	}) / runs
	if peek >= 1<<10 {
		t.Errorf("PeekInfo allocates %d bytes, want < 1 KiB", peek)
	}
	t.Logf("ParseString %d B, PeekInfo %d B per call", parse, peek)
}
