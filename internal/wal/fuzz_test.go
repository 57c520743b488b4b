package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"bgpc/internal/bipartite"
)

// FuzzWALRecord throws hostile bytes at the frame reader: bit-flipped
// CRCs, truncated frames, lying length fields, counts that exceed the
// payload. The properties under fuzz are the decoder's whole security
// story:
//
//   - readFrame never panics and never over-allocates (a declared
//     length or element count beyond the actual bytes is ErrCorrupt
//     before any allocation sized by it);
//   - every error is io.EOF (clean boundary) or wraps ErrCorrupt;
//   - decoding is canonical: a frame that decodes re-encodes to the
//     exact same bytes, so recovery → compaction cannot drift state;
//   - decoding into a reused record, as a snapshot pass does, gives
//     the same record as a fresh decode;
//   - encoding into a dirty, reused buffer, as appends and snapshots
//     do, gives the same frame as encoding into a fresh one.
func FuzzWALRecord(f *testing.F) {
	// Seed with well-formed frames...
	g, err := bipartite.FromEdges(3, 4, []bipartite.Edge{{Net: 0, Vtx: 1}, {Net: 1, Vtx: 2}, {Net: 2, Vtx: 3}})
	if err != nil {
		f.Fatalf("FromEdges: %v", err)
	}
	full := appendRecord(nil, fullRecord(modeBGPC, g.Fingerprint(), g, []int32{0, 1, 0, 2}))
	delta := appendRecord(nil, &record{
		kind: kindDelta, mode: modeD2, fp: 0xfeed, baseFP: 0xbeef,
		edges:  []bipartite.Edge{{Net: 0, Vtx: 2}},
		remove: []bipartite.Edge{{Net: 1, Vtx: 2}},
		colors: []int32{1, 1, 2, 0},
	})
	f.Add(full)
	f.Add(delta)
	f.Add(append(append([]byte{}, full...), delta...)) // two frames back to back
	// ...and hand-built hostiles.
	f.Add(full[:len(full)-3])      // torn payload
	f.Add(full[:frameHeaderLen-2]) // torn header
	flipped := append([]byte{}, full...)
	flipped[frameHeaderLen+4] ^= 0x10 // payload bit rot
	f.Add(flipped)
	badCRC := append([]byte{}, full...)
	badCRC[4] ^= 0xff // CRC field itself
	f.Add(badCRC)
	lying := append([]byte{}, full...)
	binary.LittleEndian.PutUint32(lying[0:4], 1<<31) // hostile length
	f.Add(lying)
	huge := append([]byte{}, full...)
	// Valid CRC over a payload whose *edge count* lies: flip the count
	// field and recompute the CRC so only decodeRecord can catch it.
	binary.LittleEndian.PutUint64(huge[frameHeaderLen+18:], 1<<40)
	rehashFrame(huge)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bytes.NewReader(data)
		var consumed int64
		var scratch record // reused across frames
		var enc []byte     // reused across frames, never cleared
		for {
			rec, n, err := readFrame(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("non-corrupt, non-EOF error: %v", err)
				}
				break
			}
			if n < frameHeaderLen || consumed+n > int64(len(data)) {
				t.Fatalf("frame size %d inconsistent with input length %d", n, len(data))
			}
			// Canonical encoding: what decoded must re-encode
			// byte-for-byte.
			re := appendRecord(nil, rec)
			if !bytes.Equal(re, data[consumed:consumed+n]) {
				t.Fatalf("decode/encode round trip drifted at offset %d", consumed)
			}
			if err := decodeInto(&scratch, data[consumed+frameHeaderLen:consumed+n]); err != nil || !bytes.Equal(appendRecord(nil, &scratch), re) {
				t.Fatalf("decode into a reused record drifted at offset %d (err %v)", consumed, err)
			}
			if enc = appendRecord(enc[:0], rec); !bytes.Equal(enc, re) {
				t.Fatalf("encode into a reused buffer drifted at offset %d", consumed)
			}
			consumed += n
		}
	})
}

// rehashFrame recomputes a frame's CRC over its (possibly tampered)
// payload, so tests can craft structurally-hostile records that pass
// the checksum.
func rehashFrame(frame []byte) {
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// TestAppendRecordDifferential pins the two encoder shortcuts against
// the plain encoding: a full record whose edges come from a graph's
// CSR is byte-identical to one built from g.Edges(), and appending a
// frame to a dirty, reused buffer, or after other bytes, gives the
// same frame as a fresh encode.
func TestAppendRecordDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var reused []byte
	for i := 0; i < 50; i++ {
		g := testGraph(t, r, 1+r.Intn(40), 1+r.Intn(50), r.Intn(300))
		colors := colorBGPC(t, g)
		mb := byte(i % numModes)
		plain := appendRecord(nil, &record{
			kind: kindFull, mode: mb, fp: g.Fingerprint(),
			nets: g.NumNets(), vtxs: g.NumVertices(), edges: g.Edges(), colors: colors,
		})
		if csr := appendRecord(nil, fullRecord(mb, g.Fingerprint(), g, colors)); !bytes.Equal(csr, plain) {
			t.Fatalf("graph %d: full record from the CSR differs from the one from g.Edges()", i)
		}
		// Dirty the reused buffer with the previous frame's bytes
		// beyond its length as well as within it.
		reused = appendRecord(reused[:0], fullRecord(mb, g.Fingerprint(), g, colors))
		if !bytes.Equal(reused, plain) {
			t.Fatalf("graph %d: encode into a reused buffer differs from a fresh encode", i)
		}
		prefix := []byte("prefix")
		if got := appendRecord(prefix, fullRecord(mb, g.Fingerprint(), g, colors)); !bytes.Equal(got[len(prefix):], plain) {
			t.Fatalf("graph %d: encode after a prefix differs from a fresh encode", i)
		}
		delta := &record{
			kind: kindDelta, mode: mb, fp: uint64(i), baseFP: g.Fingerprint(),
			edges: g.Edges()[:min(3, int(g.NumEdges()))], remove: g.Edges()[:min(1, int(g.NumEdges()))], colors: colors,
		}
		want := appendRecord(nil, delta)
		if reused = appendRecord(reused[:0], delta); !bytes.Equal(reused, want) {
			t.Fatalf("graph %d: delta encode into a reused buffer differs from a fresh encode", i)
		}
		rec, err := decodeRecord(want[frameHeaderLen:])
		if err != nil || !bytes.Equal(appendRecord(nil, rec), want) {
			t.Fatalf("graph %d: delta record does not round-trip (err %v)", i, err)
		}
	}
}
