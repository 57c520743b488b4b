// Package wal gives the coloring daemon durable state: a segmented,
// append-only write-ahead log of accepted full colorings and delta
// applications, plus the recovery machinery that rebuilds warm-start
// state from it after a crash or restart.
//
// Durability is what turns the delta API from a cache trick into a
// service contract: a delta chain composes against cached colorings,
// and without a log a restart (or plain cache eviction) silently
// invalidates every fingerprint clients have learned. With the log, an
// acknowledged coloring is recoverable — full colorings are logged with
// their graph inline, delta applications as (base fingerprint, edge
// lists, resulting colors), and any logged fingerprint can be
// rehydrated by replaying its chain from the nearest full record.
//
// The write path is deliberately boring: CRC32C-framed length-prefixed
// records appended to the active segment, an fsync policy of "always"
// (fsync per append), "interval" (background batch), or "never", and
// rotation past a size threshold. Periodically the live fingerprint
// state is compacted into a snapshot segment and older segments are
// deleted — recovery then replays the snapshot plus the tail.
// Compaction runs on a Log-owned goroutine and holds the append lock
// only to seal the active segment and to install the result, so appends
// and lookups proceed while the snapshot is written. A coloring already
// held as a full record is carried into the next snapshot byte for
// byte; only fingerprints produced by deltas since the last snapshot
// are rebuilt from their chains, each chain replayed once per pass.
//
// Failure handling is one-way and non-fatal. An IO error on the write
// path (disk full, injected fault) trips a degraded fuse: the log stops
// accepting appends, the daemon keeps serving from memory, and the
// operator sees the svc_wal_degraded gauge and X-BGPC-Durability: none.
// On recovery, a torn tail truncates at the first bad CRC, and a
// corrupted earlier segment is quarantined (renamed aside, counted)
// rather than refusing to start.
package wal

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
)

// Failpoint names on the durability path, for chaos schedules:
const (
	// FPAppend fires before a record is written to the active segment.
	// "err" simulates a full disk — the append fails and the degraded
	// fuse trips.
	FPAppend = "wal.append"
	// FPSync fires inside every fsync of the active segment (sync
	// batches, and the seal at rotation or snapshot); "err" is a sync
	// failure (fuse trips), "delay" a slow disk.
	FPSync = "wal.sync"
	// FPReplay fires once per record during recovery replay; "err"
	// makes that record read as corrupt, exercising tail truncation and
	// segment quarantine.
	FPReplay = "wal.replay"
	// FPSnapshot fires once per compaction, after the seal and before
	// the snapshot is written, with no lock held; "err" fails the
	// compaction (fuse trips), "delay" holds the snapshot open while
	// appends and lookups carry on.
	FPSnapshot = "wal.snapshot"
)

// Sync policies.
const (
	SyncAlways   = "always"
	SyncInterval = "interval"
	SyncNever    = "never"
)

var (
	// ErrDegraded reports the one-way fuse has tripped: a previous IO
	// error put the log in in-memory-only mode and appends are refused.
	ErrDegraded = errors.New("wal: degraded (in-memory-only after IO error)")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("wal: closed")
	// ErrUnknown reports a fingerprint (or its coloring for the
	// requested mode) that the log has no record of. Callers treat it as
	// a true miss; any other Rehydrate error is a transient or local
	// failure against state the log does claim — a recoverable
	// condition, not an unlearnable one.
	ErrUnknown = errors.New("wal: unknown fingerprint")
)

// Options configures a Log. The zero value of every field but Dir picks
// serving-friendly defaults.
type Options struct {
	// Dir is the data directory; created if absent. Required.
	Dir string
	// Sync is the fsync policy: SyncAlways (fsync every append — the
	// strict durability contract), SyncInterval (background batch every
	// Interval), or SyncNever (leave it to the OS). Default interval.
	Sync string
	// Interval is the batch-fsync period under SyncInterval; ≤ 0 means
	// 100ms.
	Interval time.Duration
	// SegmentBytes rotates the active segment past this size; ≤ 0 means
	// 4 MiB.
	SegmentBytes int64
	// SnapshotEvery compacts the live state into a snapshot segment
	// (and truncates older segments) every N appends; 0 means 512,
	// negative disables snapshots.
	SnapshotEvery int
	// MaxChain bounds how many delta records a rehydration may replay
	// before giving up; ≤ 0 means 512.
	MaxChain int
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("wal: Options.Dir required")
	}
	switch o.Sync {
	case "":
		o.Sync = SyncInterval
	case SyncAlways, SyncInterval, SyncNever:
	default:
		return o, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or never)", o.Sync)
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 512
	}
	if o.MaxChain <= 0 {
		o.MaxChain = 512
	}
	return o, nil
}

// ref locates one record: segment sequence number and byte offset of
// its frame within the segment file.
type ref struct {
	seq uint64
	off int64
}

// numModes is the number of coloring modes (modeBGPC, modeD2).
const numModes = 2

// fpState is the in-memory index entry for one fingerprint: where its
// graph can be materialized from (a full record, or a delta record plus
// the base chain) and where the latest coloring per mode lives. Refs
// are replaced, never written through, so a struct copy is a
// consistent view of the entry.
type fpState struct {
	full     *ref   // record with the graph inline, when one exists
	deltaSrc *ref   // delta record producing this fingerprint
	baseFP   uint64 // base of deltaSrc
	colors   [numModes]*ref
	touch    uint64 // recency clock for warm-start ordering
}

// chained reports whether the entry's graph comes only from a delta
// chain, which a snapshot replays.
func (st *fpState) chained() bool { return st.full == nil && st.deltaSrc != nil }

// live reports whether the entry still has a graph source and at least
// one coloring; an entry that is not live is dropped from the index.
func (st *fpState) live() bool {
	return (st.full != nil || st.deltaSrc != nil) && (st.colors[modeBGPC] != nil || st.colors[modeD2] != nil)
}

// maxKeptBuf is the largest encode buffer the Log keeps between
// appends.
const maxKeptBuf = 1 << 20

// Log is the write-ahead log. All methods are safe for concurrent use;
// there is exactly one writer goroutine at a time by construction (the
// internal mutex), so appends serialize. Snapshot compactions run one
// at a time on the compactor goroutine (compactLoop).
type Log struct {
	opts Options

	mu         sync.Mutex
	active     *os.File
	activeSeq  uint64
	activeSize int64
	index      map[uint64]*fpState
	clock      uint64
	sinceSnap  int
	queued     int // threshold crossings not yet compacted
	unsynced   bool
	closed     bool
	// buf is the encode buffer appends reuse, dropped after a frame
	// larger than maxKeptBuf.
	buf []byte

	degraded atomic.Bool

	// stop is closed by Close; the compactor and the syncLoop exit on
	// it, signalling compactDone and done (SyncInterval only).
	stop        chan struct{}
	compactDone chan struct{}
	done        chan struct{}

	// The compactor's inputs: Snapshot requests with their reply
	// channel, and a wake-up when queued grows.
	snapReq  chan chan error
	snapWake chan struct{}
}

func segName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

func (l *Log) segPath(seq uint64) string { return filepath.Join(l.opts.Dir, segName(seq)) }

// Dir returns the log's data directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Degraded reports whether the one-way fuse has tripped.
func (l *Log) Degraded() bool { return l.degraded.Load() }

// Known reports whether the log has any record of fp.
func (l *Log) Known(fp uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.index[fp]
	return ok
}

// HasColoring reports whether the log holds a coloring of fp for mode.
func (l *Log) HasColoring(fp uint64, mode string) bool {
	mb, err := modeByte(mode)
	if err != nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.index[fp]
	return ok && st.colors[mb] != nil
}

// Modes returns the modes the log holds colorings of fp for.
func (l *Log) Modes(fp uint64) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.index[fp]
	if !ok {
		return nil
	}
	out := make([]string, 0, numModes)
	if st.colors[modeBGPC] != nil {
		out = append(out, "bgpc")
	}
	if st.colors[modeD2] != nil {
		out = append(out, "d2")
	}
	return out
}

// RecentFingerprints returns up to n logged fingerprints, most recently
// touched first — the warm-start order a recovering cache wants.
func (l *Log) RecentFingerprints(n int) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	type pair struct {
		fp    uint64
		touch uint64
	}
	all := make([]pair, 0, len(l.index))
	for fp, st := range l.index {
		all = append(all, pair{fp, st.touch})
	}
	slices.SortFunc(all, func(a, b pair) int { return cmp.Compare(b.touch, a.touch) })
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	out := make([]uint64, len(all))
	for i, p := range all {
		out[i] = p.fp
	}
	return out
}

// FingerprintCount reports indexed fingerprints (a live gauge).
func (l *Log) FingerprintCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.index))
}

// SegmentCount reports on-disk segments, active included (a live
// gauge). Quarantined segments do not count.
func (l *Log) SegmentCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seqs, _, err := l.listSegments()
	if err != nil {
		return 0
	}
	return int64(len(seqs))
}

// AppendFull logs an accepted full coloring: the graph (inline, so the
// fingerprint can be rehydrated with no prior state) plus its verified
// colors for mode.
func (l *Log) AppendFull(fp uint64, mode string, g *bipartite.Graph, colors []int32) error {
	mb, err := modeByte(mode)
	if err != nil {
		return err
	}
	return l.append(fullRecord(mb, fp, g, colors))
}

// AppendDelta logs an accepted delta application: base fingerprint,
// the edge lists, the resulting fingerprint, and its verified colors.
// The resulting graph is not stored — rehydration replays the chain.
func (l *Log) AppendDelta(baseFP, fp uint64, mode string, insert, remove []bipartite.Edge, colors []int32) error {
	mb, err := modeByte(mode)
	if err != nil {
		return err
	}
	return l.append(&record{
		kind:   kindDelta,
		mode:   mb,
		fp:     fp,
		baseFP: baseFP,
		edges:  insert,
		remove: remove,
		colors: colors,
	})
}

// append writes one record under the configured durability policy and
// indexes it. Any IO failure trips the degraded fuse.
func (l *Log) append(rec *record) error {
	if l.degraded.Load() {
		return ErrDegraded
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := failpoint.Inject(FPAppend); err != nil {
		return l.degrade(fmt.Errorf("wal: append: %w", err))
	}
	frame := appendRecord(l.buf[:0], rec)
	l.buf = frame
	if cap(frame) > maxKeptBuf {
		l.buf = nil // a whale graph's frame is not kept for the next append
	}
	if l.activeSize+int64(len(frame)) > l.opts.SegmentBytes && l.activeSize > int64(len(segMagic)) {
		if err := l.rotateLocked(l.activeSeq + 1); err != nil {
			return l.degrade(err)
		}
	}
	off := l.activeSize
	if _, err := l.active.Write(frame); err != nil {
		return l.degrade(fmt.Errorf("wal: append: %w", err))
	}
	l.activeSize += int64(len(frame))
	l.unsynced = true
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return l.degrade(err)
		}
	}
	l.indexRecord(rec, ref{seq: l.activeSeq, off: off})
	obs.WalAppends.Inc()
	obs.WalAppendSeconds.Observe(time.Since(start).Seconds())
	if l.opts.SnapshotEvery > 0 {
		l.sinceSnap++
		if l.sinceSnap >= l.opts.SnapshotEvery {
			// Queue a compaction for the compactor; each crossing
			// queues exactly one, so none is lost to one in flight.
			l.sinceSnap = 0
			l.queued++
			select {
			case l.snapWake <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}
	return nil
}

// indexRecord folds one record into the fingerprint index. A full
// record upgrades a delta-sourced fingerprint (shorter chains); the
// latest coloring per (fp, mode) wins.
func (l *Log) indexRecord(rec *record, r ref) {
	st := l.index[rec.fp]
	if st == nil {
		st = &fpState{}
		l.index[rec.fp] = st
	}
	switch rec.kind {
	case kindFull:
		rcopy := r
		st.full = &rcopy
	case kindDelta:
		if st.full == nil {
			rcopy := r
			st.deltaSrc = &rcopy
			st.baseFP = rec.baseFP
		}
	}
	rcopy := r
	st.colors[rec.mode] = &rcopy
	l.clock++
	st.touch = l.clock
}

// degrade trips the one-way fuse and returns err wrapped; callers keep
// serving from memory.
func (l *Log) degrade(err error) error {
	obs.WalAppendErrors.Inc()
	l.degraded.Store(true)
	return fmt.Errorf("%w: %v", ErrDegraded, err)
}

// rotateLocked seals the active segment and makes segment next the
// append target. The sealed segment is fsynced before next exists:
// recovery cuts a torn tail only from the last segment and quarantines
// any earlier one that is damaged, so every segment but the last must
// be durable.
func (l *Log) rotateLocked(next uint64) error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	return l.openActiveLocked(next)
}

// openActiveLocked creates segment seq and makes it the append target.
// Its header is unsynced until the next sync batch.
func (l *Log) openActiveLocked(seq uint64) error {
	f, err := os.OpenFile(l.segPath(seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	l.active = f
	l.activeSeq = seq
	l.activeSize = int64(len(segMagic))
	l.unsynced = true
	return l.syncDir()
}

// syncDir fsyncs the data directory so segment creations, renames and
// deletions are themselves durable.
func (l *Log) syncDir() error {
	d, err := os.Open(l.opts.Dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// syncLocked fsyncs the active segment (one sync batch).
func (l *Log) syncLocked() error {
	if !l.unsynced {
		return nil
	}
	if err := failpoint.Inject(FPSync); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.unsynced = false
	obs.WalSyncs.Inc()
	obs.WalSyncSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Sync flushes unsynced appends now, whatever the policy. A sync
// failure trips the degraded fuse like an append failure would.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.degraded.Load() {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return l.degrade(err)
	}
	return nil
}

// Snapshot compacts the live fingerprint state into one snapshot
// segment and deletes the segments it supersedes, returning once the
// snapshot is installed. It waits for a compaction already in flight,
// then runs its own; appends and lookups are blocked only while the
// active segment is sealed and while the result is installed, not
// while the snapshot is written. Rehydratable state is unaffected.
func (l *Log) Snapshot() error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if l.degraded.Load() {
		return ErrDegraded
	}
	reply := make(chan error, 1)
	select {
	case l.snapReq <- reply:
	case <-l.compactDone:
		return ErrClosed
	}
	return <-reply
}

// compactLoop is the compactor: it runs the compactions Snapshot asks
// for and the ones the SnapshotEvery threshold queues, one at a time.
// Close stops it; it finishes the queued compactions before it exits.
func (l *Log) compactLoop() {
	defer close(l.compactDone)
	for {
		select {
		case reply := <-l.snapReq:
			reply <- l.compact()
		case <-l.snapWake:
			l.runQueued()
		case <-l.stop:
			l.runQueued()
			return
		}
	}
}

// runQueued runs the compactions queued by the append threshold.
func (l *Log) runQueued() {
	for {
		l.mu.Lock()
		n := l.queued
		if n > 0 {
			l.queued--
		}
		l.mu.Unlock()
		if n == 0 {
			return
		}
		// A failure has tripped the fuse; appends report it.
		_ = l.compact()
	}
}

// snapJob is one compaction between its seal and its install.
type snapJob struct {
	start time.Time
	seq   uint64 // the sealed segment; the snapshot is installed as seq+1
	// entries is the index as of the seal. Every ref in it points into
	// a segment at or below seq — immutable files the writer reads with
	// no lock held.
	entries []snapEntry
}

// snapEntry is one fingerprint's index entry as of the seal, and where
// the snapshot put its colorings.
type snapEntry struct {
	fp uint64
	st fpState
	// placed is the snapshot offset of the coloring written per mode;
	// 0 (inside the magic) means none was.
	placed [numModes]int64
}

// compact runs one compaction: seal under l.mu, write with no lock
// held, install under l.mu, then delete the superseded segments. Any
// IO error trips the degraded fuse.
func (l *Log) compact() error {
	l.mu.Lock()
	if l.degraded.Load() {
		l.mu.Unlock()
		return ErrDegraded
	}
	job, err := l.sealLocked()
	l.mu.Unlock()
	if err != nil {
		return l.degrade(err)
	}
	if err := l.writeSnapshot(job); err != nil {
		return l.degrade(err)
	}
	l.installSnapshot(job)
	// Retention: everything at or before the sealed segment is
	// superseded by the snapshot. A failed delete leaves a stale segment
	// that the next recovery replays before the snapshot overwrites it —
	// wasted work, never wrong state.
	if seqs, _, err := l.listSegments(); err == nil {
		for _, seq := range seqs {
			if seq <= job.seq {
				os.Remove(l.segPath(seq))
			}
		}
	}
	if err := l.syncDir(); err != nil {
		return l.degrade(fmt.Errorf("wal: snapshot dir sync: %w", err))
	}
	return nil
}

// sealLocked ends appends to the active segment A: A is fsynced and
// closed, appends continue in a fresh segment A+2, A+1 is reserved for
// the snapshot, and the index is copied for the writer. Refs are never
// written through, so copying each entry by value is enough.
func (l *Log) sealLocked() (*snapJob, error) {
	job := &snapJob{start: time.Now(), seq: l.activeSeq}
	if err := l.rotateLocked(job.seq + 2); err != nil {
		return nil, err
	}
	job.entries = make([]snapEntry, 0, len(l.index))
	for fp, st := range l.index {
		job.entries = append(job.entries, snapEntry{fp: fp, st: *st})
	}
	return job, nil
}

// writeSnapshot writes every coloring in job's view as a full record
// into compact.tmp, installed as segment seq+1 by rename. Fingerprints
// whose chain no longer resolves (quarantined base) are dropped and
// counted; they were already unrecoverable. No lock is held.
func (l *Log) writeSnapshot(job *snapJob) error {
	if err := failpoint.Inject(FPSnapshot); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	tmpPath := filepath.Join(l.opts.Dir, "compact.tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	w := bufio.NewWriterSize(tmp, 1<<16)
	w.WriteString(segMagic) // a bufio.Writer reports write errors at Flush

	l.writeFrames(w, job.entries, newChainMemo(job.entries))
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmpPath, l.segPath(job.seq+1)); err != nil {
		return fmt.Errorf("wal: snapshot install: %w", err)
	}
	// The rename must be durable before any segment it supersedes is
	// deleted.
	if err := l.syncDir(); err != nil {
		return fmt.Errorf("wal: snapshot dir sync: %w", err)
	}
	return nil
}

// writeFrames writes to w, which already holds segMagic, the snapshot
// frame of every coloring in entries, and records in each entry where
// its frames land. Write errors surface at w's Flush. Entries go in touch order: that keeps snapshot bytes
// reproducible for a given index state (tests), keeps recency intact
// across the rewrite, and writes a chain base before its deltas, so
// memo resumes each chain where the last entry left it.
func (l *Log) writeFrames(w *bufio.Writer, entries []snapEntry, memo *chainMemo) {
	slices.SortFunc(entries, func(a, b snapEntry) int { return cmp.Compare(a.st.touch, b.st.touch) })
	view := make(map[uint64]*fpState, len(entries))
	for i := range entries {
		view[entries[i].fp] = &entries[i].st
	}
	sr := l.newSegReader()
	defer sr.close()
	size := int64(len(segMagic))
	for i := range entries {
		e := &entries[i]
		for mb, cref := range e.st.colors {
			if cref == nil {
				continue
			}
			frame, err := l.snapshotFrame(sr, view, memo, e.fp, byte(mb), *cref)
			if err != nil {
				obs.WalReplaySkipped.Inc()
				continue
			}
			w.Write(frame)
			e.placed[mb] = size
			size += int64(len(frame))
		}
		memo.written(e.fp, &e.st)
	}
}

// snapshotFrame returns the full-record frame the snapshot holds for
// fp's coloring in mode mb, recorded at cref. A coloring that already is
// a full record — from the previous snapshot or an AppendFull — is
// carried forward byte for byte once it decodes as recovery would
// decode it, with one color per vertex; its graph is not rebuilt. A
// delta's coloring is re-encoded, into sr's encode buffer, as a full
// record over the graph its chain walk produces; the walk starts from
// what memo already holds. The frame is valid until sr's next use.
func (l *Log) snapshotFrame(sr *segReader, view map[uint64]*fpState, memo *chainMemo, fp uint64, mb byte, cref ref) ([]byte, error) {
	frame, err := sr.frame(cref)
	if err != nil {
		return nil, err
	}
	crec := &sr.rec
	if err := decodeInto(crec, frame[frameHeaderLen:]); err != nil {
		return nil, err
	}
	if crec.fp != fp || crec.mode != mb {
		return nil, fmt.Errorf("%w: record of %016x mode %d indexed as %016x mode %d", ErrCorrupt, crec.fp, crec.mode, fp, mb)
	}
	if crec.kind == kindFull {
		if len(crec.colors) != crec.vtxs {
			return nil, fmt.Errorf("%w: coloring length %d != %d vertices", ErrCorrupt, len(crec.colors), crec.vtxs)
		}
		return frame, nil
	}
	g, err := chainGraph(view, sr, fp, l.opts.MaxChain, memo)
	if err != nil {
		return nil, err
	}
	if len(crec.colors) != g.NumVertices() {
		return nil, fmt.Errorf("%w: coloring length %d != %d vertices", ErrCorrupt, len(crec.colors), g.NumVertices())
	}
	sr.enc = appendRecord(sr.enc[:0], fullRecord(mb, fp, g, crec.colors))
	return sr.enc, nil
}

// installSnapshot points every index ref at or below the sealed
// segment to its copy in the snapshot; refs written after the seal are
// newer than the snapshot and stay. A coloring the writer dropped loses
// its ref, and an entry left without a graph source or a coloring is
// dropped, as after a quarantine.
func (l *Log) installSnapshot(job *snapJob) {
	snapSeq := job.seq + 1
	old := func(r *ref) bool { return r != nil && r.seq <= job.seq }
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range job.entries {
		st := l.index[e.fp]
		if st == nil {
			continue
		}
		var full *ref
		for mb, off := range e.placed {
			var r *ref
			if off != 0 {
				r = &ref{seq: snapSeq, off: off}
				full = r
			}
			if old(st.colors[mb]) {
				st.colors[mb] = r
			}
		}
		if st.full == nil || old(st.full) {
			st.full = full
		}
		if old(st.deltaSrc) {
			st.deltaSrc = nil
		}
		if !st.live() {
			delete(l.index, e.fp)
		}
	}
	obs.WalSnapshots.Inc()
	obs.WalSnapshotSeconds.Observe(time.Since(job.start).Seconds())
}

// listSegments returns the sequence numbers (sorted ascending) and
// names of every well-formed segment file in the directory.
func (l *Log) listSegments() ([]uint64, map[uint64]string, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	var seqs []uint64
	names := map[uint64]string{}
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%08d.seg", &seq); n != 1 || err != nil {
			continue
		}
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		seqs = append(seqs, seq)
		names[seq] = e.Name()
	}
	slices.Sort(seqs)
	return seqs, names, nil
}

// Close finishes the in-flight and queued compactions, stops the
// background sync (if any), flushes, and closes the active segment.
// Appends and rehydration are refused from the moment it is called.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	// The compactor may still seal the active segment; wait for it.
	// The syncLoop's Sync is a no-op once closed is set.
	close(l.stop)
	<-l.compactDone

	l.mu.Lock()
	var err error
	if !l.degraded.Load() {
		err = l.syncLocked()
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
	} else {
		l.active.Close()
	}
	l.mu.Unlock()
	if l.done != nil {
		<-l.done
	}
	return err
}
