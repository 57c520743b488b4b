// Package mtx reads and writes sparse matrices in the NIST MatrixMarket
// coordinate format, the interchange format of the SuiteSparse/UFL
// collection the paper's test-bed comes from. Only the structure
// (pattern) matters for coloring, so numerical values are parsed and
// discarded; pattern, real, integer, and complex fields are accepted,
// as are general, symmetric, and skew-symmetric symmetry modes
// (symmetric entries are expanded).
//
// The parser treats its input as untrusted. Nothing is ever allocated
// from header claims alone: the edge buffer starts small and grows
// geometrically with data actually scanned, every line (banner,
// comment, size, entry) is length-capped, and declared dimensions are
// checked against limits.ParseLimits before a byte of data is read.
// Violations surface as two typed errors — ErrFormat for malformed
// input, limits.ErrTooLarge for well-formed input over a cap — so
// serving layers can map them to 400 and 413 respectively.
//
// One header parser and one entry loop serve two line sources: a
// document already in memory (ParseString, PeekInfo) is parsed in
// place, with lines and fields sliced out of it; a stream (Read,
// ReadLimited, ReadFile) is read through one buffered reader.
package mtx

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
)

// ErrFormat reports malformed MatrixMarket input.
var ErrFormat = errors.New("mtx: malformed MatrixMarket input")

// ErrTooLarge re-exports the cap-violation sentinel so callers can
// match oversized input without importing internal/limits.
var ErrTooLarge = limits.ErrTooLarge

// FPReadEntry is probed once per data line while scanning coordinate
// entries. An injected error surfaces as a format error mid-stream —
// the shape of a truncated or corrupted matrix file — so serving
// layers can rehearse parse failures on otherwise valid input; "delay"
// turns the parse into a slow reader.
const FPReadEntry = "mtx.readEntry"

// header describes the parsed banner + size line.
type header struct {
	field     string // pattern | real | integer | complex
	symmetry  string // general | symmetric | skew-symmetric | hermitian
	rows      int
	cols      int
	nnz       int64
	valueCols int // numbers after the two indices on each entry line
}

// Info is the declared shape of a MatrixMarket document — what the
// header claims, before any data is scanned. Admission layers use it to
// estimate a job's footprint without paying for the parse.
type Info struct {
	Rows int
	Cols int
	NNZ  int64
	// Symmetric reports a non-general symmetry mode: the in-memory
	// entry count doubles under expansion.
	Symmetric bool
	Field     string
}

// PeekInfo parses only the banner, comments, and size line of doc,
// enforcing lim's caps, and returns the declared shape. It never looks
// at the data section and copies nothing out of doc.
func PeekInfo(doc string, lim limits.ParseLimits) (Info, error) {
	lim = lim.WithDefaults()
	h, err := readHeader(&lines{rest: doc, max: lim.MaxLineBytes}, lim)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Rows:      h.rows,
		Cols:      h.cols,
		NNZ:       h.nnz,
		Symmetric: h.symmetry != "general",
		Field:     h.field,
	}, nil
}

// Read parses MatrixMarket coordinate input into a bipartite graph with
// rows as nets and columns as vertices, under the library-default caps.
func Read(r io.Reader) (*bipartite.Graph, error) {
	return ReadLimited(r, limits.DefaultParseLimits())
}

// ReadLimited is Read with caller-supplied caps on declared dimensions
// and line lengths. Zero-valued fields of lim fall back to the
// defaults.
func ReadLimited(r io.Reader, lim limits.ParseLimits) (*bipartite.Graph, error) {
	lim = lim.WithDefaults()
	// 64KiB read buffer: lines.next accumulates longer lines itself (up
	// to lim.MaxLineBytes), so the buffer need not fit a whole line —
	// and a rejected hostile header must not have cost a big buffer.
	return parse(&lines{br: bufio.NewReaderSize(r, 1<<16), max: lim.MaxLineBytes}, lim)
}

// ParseString is ReadLimited for a document already in memory. It
// parses doc in place: lines and fields are substrings of doc, so the
// only allocations are the edge list and the graph itself.
func ParseString(doc string, lim limits.ParseLimits) (*bipartite.Graph, error) {
	lim = lim.WithDefaults()
	return parse(&lines{rest: doc, max: lim.MaxLineBytes}, lim)
}

// lines is the line source both entry points feed the one parser: a
// string source (br == nil) slices lines out of rest without copying;
// a reader source reads them from br, one string per line. Either way
// a line longer than max bytes, counting its newline, is a format
// violation reported before more than max bytes are held.
type lines struct {
	rest string        // string source: the unparsed part of the document
	br   *bufio.Reader // reader source; nil for a string source
	long []byte        // reader source: a line spanning several buffer fills
	max  int
}

// next returns the next line, newline included, or io.EOF once the
// input is exhausted.
func (l *lines) next() (string, error) {
	if l.br == nil {
		if l.rest == "" {
			return "", io.EOF
		}
		n := strings.IndexByte(l.rest[:min(len(l.rest), l.max)], '\n') + 1
		if n == 0 {
			if len(l.rest) > l.max {
				return "", l.tooLong()
			}
			n = len(l.rest)
		}
		line := l.rest[:n]
		l.rest = l.rest[n:]
		return line, nil
	}
	l.long = l.long[:0]
	for {
		frag, err := l.br.ReadSlice('\n')
		if len(l.long)+len(frag) > l.max {
			return "", l.tooLong()
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			l.long = append(l.long, frag...)
			continue
		}
		if err != nil && (!errors.Is(err, io.EOF) || len(l.long)+len(frag) == 0) {
			return "", err
		}
		if len(l.long) == 0 {
			return string(frag), nil
		}
		return string(append(l.long, frag...)), nil
	}
}

func (l *lines) tooLong() error {
	return fmt.Errorf("%w: line exceeds %d bytes", ErrFormat, l.max)
}

// parse reads a whole document from l: the header, then every entry
// line, into a graph.
func parse(l *lines, lim limits.ParseLimits) (*bipartite.Graph, error) {
	h, err := readHeader(l, lim)
	if err != nil {
		return nil, err
	}
	// Never pre-size from the untrusted header: cap the hint so peak
	// allocation tracks bytes actually scanned (append grows the slice
	// geometrically), not the header's claim. A crafted "nnz=10^12"
	// costs the attacker one small slice, not gigabytes.
	capHint := min(h.nnz*int64(expandFactor(h.symmetry)), 4096)
	edges := make([]bipartite.Edge, 0, capHint)
	seen := int64(0)
	for {
		line, err := l.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '%' {
			continue
		}
		if seen >= h.nnz {
			return nil, fmt.Errorf("%w: more than %d declared entries", ErrFormat, h.nnz)
		}
		if err := failpoint.Inject(FPReadEntry); err != nil {
			return nil, fmt.Errorf("%w: injected fault at entry %d: %v", ErrFormat, seen+1, err)
		}
		row, col, err := parseEntry(line, h)
		if err != nil {
			return nil, err
		}
		if row < 1 || row > h.rows || col < 1 || col > h.cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrFormat, row, col, h.rows, h.cols)
		}
		edges = append(edges, bipartite.Edge{Net: int32(row - 1), Vtx: int32(col - 1)})
		if h.symmetry != "general" && row != col {
			edges = append(edges, bipartite.Edge{Net: int32(col - 1), Vtx: int32(row - 1)})
		}
		seen++
	}
	if seen != h.nnz {
		return nil, fmt.Errorf("%w: declared %d entries, found %d", ErrFormat, h.nnz, seen)
	}
	return bipartite.FromEdges(h.rows, h.cols, edges)
}

func expandFactor(symmetry string) int {
	if symmetry == "general" {
		return 1
	}
	return 2
}

// splitFields splits s around runs of white space into f and returns
// how many fields s holds, which may exceed len(f). It agrees with
// strings.Fields, which it falls back to for a line with non-ASCII
// bytes so that Unicode spaces still separate fields, but it allocates
// nothing for an ASCII line.
func splitFields(s string, f []string) int {
	n, start := 0, -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			all := strings.Fields(s)
			copy(f, all)
			return len(all)
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
			if start >= 0 {
				if n < len(f) {
					f[n] = s[start:i]
				}
				n, start = n+1, -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = s[start:]
		}
		n++
	}
	return n
}

func readHeader(l *lines, lim limits.ParseLimits) (header, error) {
	var h header
	banner, err := l.next()
	if err != nil && !errors.Is(err, io.EOF) {
		return h, err
	}
	var fields [5]string
	if splitFields(strings.ToLower(banner), fields[:]) != 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return h, fmt.Errorf("%w: bad banner %q", ErrFormat, strings.TrimSpace(banner))
	}
	if fields[2] != "coordinate" {
		return h, fmt.Errorf("%w: only coordinate format is supported, got %q", ErrFormat, fields[2])
	}
	h.field, h.symmetry = fields[3], fields[4]
	switch h.field {
	case "pattern":
		h.valueCols = 0
	case "real", "integer":
		h.valueCols = 1
	case "complex":
		h.valueCols = 2
	default:
		return h, fmt.Errorf("%w: unknown field %q", ErrFormat, h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric", "hermitian":
	default:
		return h, fmt.Errorf("%w: unknown symmetry %q", ErrFormat, h.symmetry)
	}
	// Skip comments, then read the size line.
	for {
		line, err := l.next()
		if errors.Is(err, io.EOF) {
			return h, fmt.Errorf("%w: missing size line", ErrFormat)
		}
		if err != nil {
			return h, err
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || trimmed[0] == '%' {
			continue
		}
		var parts [3]string
		if splitFields(trimmed, parts[:]) != 3 {
			return h, fmt.Errorf("%w: bad size line %q", ErrFormat, trimmed)
		}
		var dims [3]int64
		for i, p := range parts {
			v, convErr := strconv.ParseInt(p, 10, 64)
			if convErr != nil || v < 0 {
				return h, fmt.Errorf("%w: bad size line %q", ErrFormat, trimmed)
			}
			dims[i] = v
		}
		// Hard caps on the declared shape — checked before any data is
		// scanned, so an oversized claim is rejected for the cost of
		// reading its header.
		if dims[0] > int64(lim.MaxRows) {
			return h, fmt.Errorf("%w: declared %d rows exceeds cap %d", ErrTooLarge, dims[0], lim.MaxRows)
		}
		if dims[1] > int64(lim.MaxCols) {
			return h, fmt.Errorf("%w: declared %d columns exceeds cap %d", ErrTooLarge, dims[1], lim.MaxCols)
		}
		if dims[2] > lim.MaxNNZ {
			return h, fmt.Errorf("%w: declared %d nonzeros exceeds cap %d", ErrTooLarge, dims[2], lim.MaxNNZ)
		}
		// rows/cols are ≤ MaxInt32 here (capped above), so the product
		// fits in int64; a claim beyond it is internally inconsistent.
		if dims[0]*dims[1] < dims[2] {
			return h, fmt.Errorf("%w: declared %d nonzeros in a %dx%d matrix", ErrFormat, dims[2], dims[0], dims[1])
		}
		h.rows, h.cols, h.nnz = int(dims[0]), int(dims[1]), dims[2]
		return h, nil
	}
}

func parseEntry(line string, h header) (row, col int, err error) {
	var parts [4]string
	want := 2 + h.valueCols
	if n := splitFields(line, parts[:]); n != want {
		return 0, 0, fmt.Errorf("%w: entry %q has %d fields, want %d", ErrFormat, line, n, want)
	}
	row, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad row index in %q", ErrFormat, line)
	}
	col, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad column index in %q", ErrFormat, line)
	}
	for _, p := range parts[2:want] {
		if _, err := strconv.ParseFloat(p, 64); err != nil {
			return 0, 0, fmt.Errorf("%w: bad value in %q", ErrFormat, line)
		}
	}
	return row, col, nil
}

// ReadFile parses the MatrixMarket file at path. Files ending in .gz
// are decompressed transparently (SuiteSparse distributes compressed
// MatrixMarket archives).
func ReadFile(path string) (*bipartite.Graph, error) {
	return ReadFileLimited(path, limits.DefaultParseLimits())
}

// ReadFileLimited is ReadFile with caller-supplied parse caps.
func ReadFileLimited(path string, lim limits.ParseLimits) (*bipartite.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("mtx: %s: %w", path, err)
		}
		defer zr.Close()
		return ReadLimited(zr, lim)
	}
	return ReadLimited(f, lim)
}

// Write emits g in MatrixMarket "coordinate pattern general" form with
// rows as nets and columns as vertices.
func Write(w io.Writer, g *bipartite.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate pattern general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", g.NumNets(), g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); int(v) < g.NumNets(); v++ {
		for _, u := range g.Vtxs(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v+1, u+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes g to path in MatrixMarket form.
func WriteFile(path string, g *bipartite.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
