package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"bgpc/internal/bipartite"
)

// On-disk format. Every segment starts with an 8-byte magic; records
// follow back to back, each framed as
//
//	| u32 payload length | u32 CRC32C(payload) | payload |
//
// (little-endian). The CRC covers only the payload, so a torn write —
// a frame header without its payload, or a payload cut short by a
// crash — fails the check and recovery truncates the tail at the last
// intact frame. Payload layout:
//
//	u8  kind           1 = full coloring, 2 = delta application
//	u8  mode           0 = bgpc, 1 = d2
//	u64 fingerprint    content hash of the (resulting) graph
//
// then, for kind full:
//
//	u32 nets, u32 vertices
//	u64 edge count, edges as (u32 net, u32 vtx) pairs
//	u32 color count, colors as u32
//
// and for kind delta:
//
//	u64 base fingerprint
//	u32 insert count, edges
//	u32 remove count, edges
//	u32 color count, colors as u32
//
// All counts are validated against the remaining payload length before
// any allocation, so a hostile or bit-flipped length field cannot make
// the decoder balloon memory — the fuzz target pins this.

const (
	segMagic = "BGPCWAL\x01"

	kindFull  byte = 1
	kindDelta byte = 2

	modeBGPC byte = 0
	modeD2   byte = 1

	frameHeaderLen = 8

	// maxRecordBytes caps a single record's declared payload length.
	// Anything larger is treated as corruption: the largest legitimate
	// record is a full coloring of a graph the admission layer already
	// bounded far below this.
	maxRecordBytes = 1 << 30
)

// castagnoli is the CRC32C table (the iSCSI polynomial, hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a frame or payload that failed structural
// validation: bad CRC, short frame, hostile length, or a field
// inconsistent with the payload size. Recovery maps it to truncation
// (tail segment) or quarantine (earlier segments).
var ErrCorrupt = errors.New("wal: corrupt record")

// record is the decoded form of one log entry.
type record struct {
	kind   byte
	mode   byte
	fp     uint64
	baseFP uint64           // kind == kindDelta
	nets   int              // kind == kindFull
	vtxs   int              // kind == kindFull
	edges  []bipartite.Edge // full: all incidences; delta: insert list
	remove []bipartite.Edge // kind == kindDelta
	colors []int32
	// graph, when set on a full record being encoded, supplies the
	// incidences in place of edges. Decoding never sets it.
	graph *bipartite.Graph
}

// modeByte maps the service's mode strings onto the on-disk byte.
func modeByte(mode string) (byte, error) {
	switch mode {
	case "bgpc":
		return modeBGPC, nil
	case "d2":
		return modeD2, nil
	}
	return 0, fmt.Errorf("wal: unknown mode %q", mode)
}

// appendEdges encodes an edge list as (u32 net, u32 vtx) pairs.
func appendEdges(b []byte, edges []bipartite.Edge) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(edges)))
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Net))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Vtx))
	}
	return b
}

// appendColors encodes a color array as u32 values.
func appendColors(b []byte, colors []int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(colors)))
	for _, c := range colors {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	return b
}

// appendRecord appends r to dst as one framed record (header +
// payload), ready to be written with a single Write call. The header
// is filled in place once the payload is known, so the frame is built
// in one buffer, which callers reuse across records.
func appendRecord(dst []byte, r *record) []byte {
	start := len(dst)
	size := frameHeaderLen + 10
	switch r.kind {
	case kindFull:
		size += 8 + 8 + 8*r.numEdges() + 4 + 4*len(r.colors)
	case kindDelta:
		size += 8 + 4 + 8*len(r.edges) + 4 + 8*len(r.remove) + 4 + 4*len(r.colors)
	}
	dst = slices.Grow(dst, size)[:start+frameHeaderLen]
	dst = append(dst, r.kind, r.mode)
	dst = binary.LittleEndian.AppendUint64(dst, r.fp)
	switch r.kind {
	case kindFull:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.nets))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.vtxs))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.numEdges()))
		if r.graph != nil {
			for v := range int32(r.nets) {
				for _, u := range r.graph.Vtxs(v) {
					dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
					dst = binary.LittleEndian.AppendUint32(dst, uint32(u))
				}
			}
		} else {
			for _, e := range r.edges {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Net))
				dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Vtx))
			}
		}
		dst = appendColors(dst, r.colors)
	case kindDelta:
		dst = binary.LittleEndian.AppendUint64(dst, r.baseFP)
		dst = appendEdges(dst, r.edges)
		dst = appendEdges(dst, r.remove)
		dst = appendColors(dst, r.colors)
	}
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// fullRecord is the full record of g's coloring in mode mb. Its edges
// are read from g's CSR when it is encoded, in the net-major order of
// g.Edges, so no edge list is built.
func fullRecord(mb byte, fp uint64, g *bipartite.Graph, colors []int32) *record {
	return &record{kind: kindFull, mode: mb, fp: fp, nets: g.NumNets(), vtxs: g.NumVertices(), graph: g, colors: colors}
}

// numEdges is the edge count of a full record.
func (r *record) numEdges() int {
	if r.graph != nil {
		return int(r.graph.NumEdges())
	}
	return len(r.edges)
}

// reader walks a payload with bounds-checked takes; any overrun marks
// it bad and zero-values flow out, checked once at the end.
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) take(n int) []byte {
	if r.bad || n < 0 || len(r.b)-r.off < n {
		r.bad = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// edges decodes count edges into dst's backing array, or a new one when
// dst is nil or too short, validating the declared count against the
// remaining bytes before allocating.
func (r *reader) edges(dst []bipartite.Edge, count int) []bipartite.Edge {
	if count < 0 || len(r.b)-r.off < 8*count {
		r.bad = true
		return nil
	}
	if dst == nil || cap(dst) < count {
		dst = make([]bipartite.Edge, count)
	}
	out := dst[:count]
	for i := range out {
		out[i] = bipartite.Edge{Net: int32(r.u32()), Vtx: int32(r.u32())}
	}
	return out
}

func (r *reader) colors(dst []int32, count int) []int32 {
	if count < 0 || len(r.b)-r.off < 4*count {
		r.bad = true
		return nil
	}
	if dst == nil || cap(dst) < count {
		dst = make([]int32, count)
	}
	out := dst[:count]
	for i := range out {
		out[i] = int32(r.u32())
	}
	return out
}

// decodeRecord parses one CRC-verified payload. It never panics and
// never allocates more than the payload length implies, whatever the
// bytes say.
func decodeRecord(payload []byte) (*record, error) {
	rec := &record{}
	if err := decodeInto(rec, payload); err != nil {
		return nil, err
	}
	return rec, nil
}

// decodeInto is decodeRecord into rec, reusing the backing arrays of
// rec's slices.
func decodeInto(rec *record, payload []byte) error {
	r := &reader{b: payload}
	*rec = record{kind: r.u8(), mode: r.u8(), fp: r.u64(), edges: rec.edges, remove: rec.remove, colors: rec.colors}
	if rec.mode != modeBGPC && rec.mode != modeD2 {
		return fmt.Errorf("%w: unknown mode byte %d", ErrCorrupt, rec.mode)
	}
	switch rec.kind {
	case kindFull:
		rec.nets = int(r.u32())
		rec.vtxs = int(r.u32())
		ec := r.u64()
		if ec > uint64(len(payload)) { // cheaper pre-check before int conversion
			return fmt.Errorf("%w: edge count %d exceeds payload", ErrCorrupt, ec)
		}
		rec.edges = r.edges(rec.edges, int(ec))
		rec.remove = rec.remove[:0]
		rec.colors = r.colors(rec.colors, int(r.u32()))
	case kindDelta:
		rec.baseFP = r.u64()
		rec.edges = r.edges(rec.edges, int(r.u32()))
		rec.remove = r.edges(rec.remove, int(r.u32()))
		rec.colors = r.colors(rec.colors, int(r.u32()))
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, rec.kind)
	}
	if r.bad || r.off != len(payload) {
		return fmt.Errorf("%w: payload length %d inconsistent with fields", ErrCorrupt, len(payload))
	}
	return nil
}

// readFrame reads one framed record from r. io.EOF means a clean end
// exactly at a frame boundary; ErrCorrupt covers torn frames, hostile
// lengths, and CRC mismatches. n is the total frame size on success.
func readFrame(r io.Reader) (rec *record, n int64, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: torn frame header: %v", ErrCorrupt, err)
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	if plen > maxRecordBytes {
		return nil, 0, fmt.Errorf("%w: declared payload %d exceeds cap", ErrCorrupt, plen)
	}
	payload, perr := readPayload(r, int(plen))
	if perr != nil {
		return nil, 0, fmt.Errorf("%w: torn payload: %v", ErrCorrupt, perr)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	rec, err = decodeRecord(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, frameHeaderLen + int64(plen), nil
}

// readPayload reads exactly n bytes, growing the buffer in bounded
// chunks: a frame header whose length field lies (bit rot, hostile
// input) costs at most the bytes actually present plus one chunk, not
// an n-sized up-front allocation.
func readPayload(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		m := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, m)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
