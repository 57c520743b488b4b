package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
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
//     the same record as a fresh decode.
func FuzzWALRecord(f *testing.F) {
	// Seed with well-formed frames...
	g, err := bipartite.FromEdges(3, 4, []bipartite.Edge{{Net: 0, Vtx: 1}, {Net: 1, Vtx: 2}, {Net: 2, Vtx: 3}})
	if err != nil {
		f.Fatalf("FromEdges: %v", err)
	}
	full := encodeRecord(&record{
		kind: kindFull, mode: modeBGPC, fp: g.Fingerprint(),
		nets: g.NumNets(), vtxs: g.NumVertices(), edges: g.Edges(),
		colors: []int32{0, 1, 0, 2},
	})
	delta := encodeRecord(&record{
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
			re := encodeRecord(rec)
			if !bytes.Equal(re, data[consumed:consumed+n]) {
				t.Fatalf("decode/encode round trip drifted at offset %d", consumed)
			}
			if err := decodeInto(&scratch, data[consumed+frameHeaderLen:consumed+n]); err != nil || !bytes.Equal(encodeRecord(&scratch), re) {
				t.Fatalf("decode into a reused record drifted at offset %d (err %v)", consumed, err)
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
