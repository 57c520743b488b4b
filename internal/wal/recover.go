package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
)

// Stats summarizes what recovery found and did. It is the daemon's
// startup report line.
type Stats struct {
	// Segments scanned (survivors; quarantined segments not included).
	Segments int
	// Records replayed into the index.
	Records int
	// Fingerprints indexed after replay.
	Fingerprints int
	// TruncatedBytes cut off the final segment's torn tail.
	TruncatedBytes int64
	// QuarantinedSegments renamed aside for mid-segment corruption.
	QuarantinedSegments int
}

func (s Stats) String() string {
	return fmt.Sprintf("segments=%d records=%d fingerprints=%d truncated_bytes=%d quarantined=%d",
		s.Segments, s.Records, s.Fingerprints, s.TruncatedBytes, s.QuarantinedSegments)
}

// Open recovers a Log from dir (created if absent) and readies it for
// appends. Recovery replays every segment in sequence order into the
// fingerprint index; a torn tail on the final segment truncates at the
// last intact record, and corruption anywhere else quarantines that
// whole segment (renamed to .corrupt, its records dropped) rather than
// refusing to start. Appends always land in a fresh segment after the
// highest sequence number ever seen, so a quarantined tail is never
// written over.
func Open(opts Options) (*Log, Stats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, Stats{}, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, Stats{}, fmt.Errorf("wal: open dir: %w", err)
	}
	// A compact.tmp is a snapshot that died before its rename; it was
	// never part of the log.
	os.Remove(filepath.Join(opts.Dir, "compact.tmp"))

	l := &Log{
		opts:        opts,
		index:       make(map[uint64]*fpState),
		stop:        make(chan struct{}),
		compactDone: make(chan struct{}),
		snapReq:     make(chan chan error),
		snapWake:    make(chan struct{}, 1),
	}
	seqs, _, err := l.listSegments()
	if err != nil {
		return nil, Stats{}, fmt.Errorf("wal: scan dir: %w", err)
	}

	var stats Stats
	var maxSeen uint64
	for i, seq := range seqs {
		if seq > maxSeen {
			maxSeen = seq
		}
		last := i == len(seqs)-1
		n, trunc, err := l.replaySegment(seq, last)
		stats.Records += n
		stats.TruncatedBytes += trunc
		if err != nil {
			// Mid-segment (or header) corruption on a non-final segment:
			// quarantine it and drop whatever of it we indexed.
			l.quarantineSegment(seq)
			stats.QuarantinedSegments++
			continue
		}
		stats.Segments++
	}
	stats.Fingerprints = len(l.index)

	if err := l.openActiveLocked(maxSeen + 1); err != nil {
		return nil, Stats{}, err
	}
	if opts.Sync == SyncInterval {
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	go l.compactLoop()
	return l, stats, nil
}

// replaySegment reads one segment into the index. For the final
// segment, corruption is a torn tail: the file is truncated at the last
// intact frame and replay reports success. For earlier segments the
// corruption is returned so the caller quarantines. The returned count
// is records indexed (they are dropped again if the caller
// quarantines), trunc the bytes cut off.
func (l *Log) replaySegment(seq uint64, last bool) (count int, trunc int64, err error) {
	path := l.segPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment %d: %w", seq, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: stat segment %d: %w", seq, err)
	}
	size := fi.Size()

	hdr := make([]byte, len(segMagic))
	if _, herr := io.ReadFull(f, hdr); herr != nil || string(hdr) != segMagic {
		if last {
			// A segment created but not yet past its header when the
			// process died. Nothing in it to lose.
			obs.WalTruncatedRecords.Inc()
			return 0, size, os.Truncate(path, 0)
		}
		return 0, 0, fmt.Errorf("%w: segment %d: bad header", ErrCorrupt, seq)
	}

	br := bufio.NewReaderSize(f, 1<<16)
	off := int64(len(segMagic))
	for {
		rec, n, rerr := readFrame(br)
		if rerr == io.EOF {
			return count, 0, nil
		}
		if rerr == nil {
			if ferr := failpoint.Inject(FPReplay); ferr != nil {
				rerr = fmt.Errorf("%w: injected: %v", ErrCorrupt, ferr)
			}
		}
		if rerr != nil {
			if !errors.Is(rerr, ErrCorrupt) {
				return count, 0, fmt.Errorf("wal: segment %d: %w", seq, rerr)
			}
			if last {
				// Torn tail: keep the intact prefix, cut the rest.
				obs.WalTruncatedRecords.Inc()
				if terr := os.Truncate(path, off); terr != nil {
					return count, 0, fmt.Errorf("wal: truncate tail: %w", terr)
				}
				return count, size - off, nil
			}
			return count, 0, fmt.Errorf("wal: segment %d at offset %d: %w", seq, off, rerr)
		}
		l.indexRecord(rec, ref{seq: seq, off: off})
		obs.WalReplayed.Inc()
		count++
		off += n
	}
}

// quarantineSegment renames a corrupted segment aside (.corrupt) and
// drops every index entry that pointed into it. Fingerprints left with
// no graph source are dropped entirely; delta descendants of a dropped
// base stay indexed and fail their chain walk later, where they are
// counted as replay-skipped.
func (l *Log) quarantineSegment(seq uint64) {
	os.Rename(l.segPath(seq), l.segPath(seq)+".corrupt")
	obs.WalQuarantinedSegments.Inc()
	for fp, st := range l.index {
		if st.full != nil && st.full.seq == seq {
			st.full = nil
		}
		if st.deltaSrc != nil && st.deltaSrc.seq == seq {
			st.deltaSrc = nil
		}
		for mb, cref := range st.colors {
			if cref != nil && cref.seq == seq {
				st.colors[mb] = nil
			}
		}
		if !st.live() {
			delete(l.index, fp)
		}
	}
}

// syncLoop is the SyncInterval policy's background fsync batcher,
// stopped by Close.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.Sync()
		}
	}
}

// segReader reads records by exact-size ReadAt through one open handle
// per segment, kept for the length of one pass — a rehydration or a
// snapshot write — so a pass pays one open per segment, not one per
// record. The frame buffer is reused: a returned frame is valid only
// until the next read. So are rec, the record a snapshot decodes each
// coloring into, walk, the one chainGraph decodes chain records into,
// and enc, the buffer a snapshot re-encodes colorings into.
type segReader struct {
	dir   string
	files map[uint64]segHandle
	buf   []byte
	rec   record
	walk  record
	enc   []byte
}

// segHandle is an open segment and its size when it was opened; every
// record the index points at lies wholly inside that size.
type segHandle struct {
	f    *os.File
	size int64
}

func (l *Log) newSegReader() *segReader {
	return &segReader{dir: l.opts.Dir, files: make(map[uint64]segHandle)}
}

// close releases every handle the pass opened; the files were only read.
func (sr *segReader) close() {
	for _, h := range sr.files {
		h.f.Close()
	}
}

// frame returns the CRC-checked frame (header and payload) at r. A
// declared length that runs past the segment's end is ErrCorrupt before
// anything is allocated for it.
func (sr *segReader) frame(r ref) ([]byte, error) {
	h, ok := sr.files[r.seq]
	if !ok {
		f, err := os.Open(filepath.Join(sr.dir, segName(r.seq)))
		if err != nil {
			return nil, fmt.Errorf("wal: read record: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: read record: %w", err)
		}
		h = segHandle{f: f, size: fi.Size()}
		sr.files[r.seq] = h
	}
	if r.off+frameHeaderLen > h.size {
		return nil, fmt.Errorf("%w: frame header at %d past end of segment %d", ErrCorrupt, r.off, r.seq)
	}
	var hdr [frameHeaderLen]byte
	if _, err := h.f.ReadAt(hdr[:], r.off); err != nil {
		return nil, fmt.Errorf("wal: read record: %w", err)
	}
	n := frameHeaderLen + int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if r.off+n > h.size {
		return nil, fmt.Errorf("%w: frame at %d runs past end of segment %d", ErrCorrupt, r.off, r.seq)
	}
	sr.buf = slices.Grow(sr.buf[:0], int(n))[:n]
	copy(sr.buf, hdr[:])
	if _, err := h.f.ReadAt(sr.buf[frameHeaderLen:], r.off+frameHeaderLen); err != nil {
		return nil, fmt.Errorf("wal: read record: %w", err)
	}
	if got, want := crc32.Checksum(sr.buf[frameHeaderLen:], castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	return sr.buf, nil
}

// record reads and decodes the record at r into rec, reusing rec's
// slices.
func (sr *segReader) record(r ref, rec *record) error {
	frame, err := sr.frame(r)
	if err != nil {
		return err
	}
	return decodeInto(rec, frame[frameHeaderLen:])
}

// chainMemo is what one snapshot pass keeps of the graphs chainGraph
// has materialized and fingerprint-checked, so a chain written in
// touch order replays each delta once. It keeps only what a walk can
// stop at: a delta entry not yet written (its other mode may follow)
// and the direct base of one. refs counts those holds per fingerprint,
// and a graph is kept only while its count is above zero, so for a
// chain written in touch order the memo holds the chain's frontier,
// not the chain. A nil memo keeps nothing.
type chainMemo struct {
	graphs map[uint64]memoGraph
	refs   map[uint64]int
	peak   int // most graphs held at once
}

// memoGraph is a materialized graph and the number of deltas replayed
// onto its full record to reach it.
type memoGraph struct {
	g    *bipartite.Graph
	hops int
}

// newChainMemo counts the holds of entries' delta entries, all
// unwritten.
func newChainMemo(entries []snapEntry) *chainMemo {
	m := &chainMemo{graphs: make(map[uint64]memoGraph), refs: make(map[uint64]int)}
	for i := range entries {
		if st := &entries[i].st; st.chained() {
			m.refs[entries[i].fp]++
			m.refs[st.baseFP]++
		}
	}
	return m
}

// written releases the holds of the entry fp, st once it is written.
func (m *chainMemo) written(fp uint64, st *fpState) {
	if st.chained() {
		m.release(fp)
		m.release(st.baseFP)
	}
}

func (m *chainMemo) release(fp uint64) {
	if m.refs[fp]--; m.refs[fp] <= 0 {
		delete(m.refs, fp)
		delete(m.graphs, fp)
	}
}

func (m *chainMemo) get(fp uint64) (memoGraph, bool) {
	if m == nil {
		return memoGraph{}, false
	}
	mg, ok := m.graphs[fp]
	return mg, ok
}

// put keeps g, whose fingerprint is fp, while fp is held.
func (m *chainMemo) put(fp uint64, g *bipartite.Graph, hops int) {
	if m != nil && m.refs[fp] > 0 {
		m.graphs[fp] = memoGraph{g, hops}
		m.peak = max(m.peak, len(m.graphs))
	}
}

// chainGraph materializes the graph behind fp by walking its chain in
// index back to the nearest full record, or to the nearest graph memo
// holds, and replaying deltas forward, checking the fingerprint at
// every hop. The graphs it builds go into memo; Rehydrate passes nil.
// The caller owns index for the duration: the live index under l.mu,
// or a snapshot's private copy.
func chainGraph(index map[uint64]*fpState, sr *segReader, fp uint64, maxChain int, memo *chainMemo) (*bipartite.Graph, error) {
	// Walk back: collect the delta refs between fp and a full record
	// or a memo hit. A hit counts its own hops against maxChain, so the
	// memo never lets a chain through that the full walk would refuse.
	var chain []ref // newest first
	cur := fp
	var fullRef ref
	var g *bipartite.Graph
	var hops int // deltas between g and its full record
	for depth := 0; ; depth++ {
		if depth > maxChain {
			return nil, fmt.Errorf("wal: fingerprint %016x: chain longer than %d", fp, maxChain)
		}
		if mg, ok := memo.get(cur); ok {
			if depth+mg.hops > maxChain {
				return nil, fmt.Errorf("wal: fingerprint %016x: chain longer than %d", fp, maxChain)
			}
			g, hops = mg.g, mg.hops
			break
		}
		st, ok := index[cur]
		if !ok {
			if cur == fp {
				return nil, fmt.Errorf("%w: %016x", ErrUnknown, fp)
			}
			return nil, fmt.Errorf("wal: fingerprint %016x: chain base %016x missing", fp, cur)
		}
		if st.full != nil {
			fullRef = *st.full
			break
		}
		if st.deltaSrc == nil {
			return nil, fmt.Errorf("wal: fingerprint %016x: no graph source for %016x", fp, cur)
		}
		chain = append(chain, *st.deltaSrc)
		cur = st.baseFP
	}

	rec := &sr.walk
	if g == nil {
		if err := sr.record(fullRef, rec); err != nil {
			return nil, err
		}
		var err error
		if g, err = bipartite.FromEdges(rec.nets, rec.vtxs, rec.edges); err != nil {
			return nil, fmt.Errorf("wal: rebuild %016x: %w", rec.fp, err)
		}
		if got := g.Fingerprint(); got != rec.fp {
			return nil, fmt.Errorf("%w: rebuilt graph fingerprint %016x != logged %016x", ErrCorrupt, got, rec.fp)
		}
		memo.put(rec.fp, g, 0)
	}

	// Replay deltas oldest first.
	for i := len(chain) - 1; i >= 0; i-- {
		if err := sr.record(chain[i], rec); err != nil {
			return nil, err
		}
		next, _, _, err := g.ApplyDelta(rec.edges, rec.remove)
		if err != nil {
			return nil, fmt.Errorf("wal: replay delta onto %016x: %w", rec.baseFP, err)
		}
		if got := next.Fingerprint(); got != rec.fp {
			return nil, fmt.Errorf("%w: delta replay fingerprint %016x != logged %016x", ErrCorrupt, got, rec.fp)
		}
		g = next
		hops++
		memo.put(rec.fp, g, hops)
	}
	return g, nil
}

// Rehydrate rebuilds the graph and coloring behind (fp, mode) from the
// log. The graph comes from the fingerprint chain (full record plus
// delta replay, fingerprint-checked at each hop); the colors from the
// latest coloring record for the mode. Callers re-verify the coloring
// against the graph before trusting it — the log proves integrity
// (CRCs, fingerprints), the verifier proves validity.
//
// A fingerprint or mode the log has no record of returns ErrUnknown;
// any other error means the log does claim the state but could not
// produce it here (broken chain, IO failure) — callers should treat
// that as recoverable, not as proof the fingerprint never existed.
func (l *Log) Rehydrate(fp uint64, mode string) (*bipartite.Graph, []int32, error) {
	mb, err := modeByte(mode)
	if err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, ErrClosed
	}
	st, ok := l.index[fp]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %016x", ErrUnknown, fp)
	}
	cref := st.colors[mb]
	if cref == nil {
		return nil, nil, fmt.Errorf("%w: %016x has no %s coloring", ErrUnknown, fp, mode)
	}
	sr := l.newSegReader()
	defer sr.close()
	g, err := chainGraph(l.index, sr, fp, l.opts.MaxChain, nil)
	if err != nil {
		obs.WalReplaySkipped.Inc()
		return nil, nil, err
	}
	crec := &record{}
	if err := sr.record(*cref, crec); err != nil {
		obs.WalReplaySkipped.Inc()
		return nil, nil, err
	}
	if len(crec.colors) != g.NumVertices() {
		obs.WalReplaySkipped.Inc()
		return nil, nil, fmt.Errorf("%w: coloring length %d != %d vertices", ErrCorrupt, len(crec.colors), g.NumVertices())
	}
	l.clock++
	st.touch = l.clock
	return g, crec.colors, nil
}
