package wal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
)

// acked is one acknowledged (fingerprint, mode) and what it must
// rehydrate to.
type acked struct {
	fp     uint64
	mode   string
	colors []int32
}

// checkAcked rehydrates every acknowledged coloring from l and checks
// the graph fingerprint and the colors.
func checkAcked(t *testing.T, l *Log, all []acked) {
	t.Helper()
	for _, a := range all {
		g, colors, err := l.Rehydrate(a.fp, a.mode)
		if err != nil {
			t.Fatalf("Rehydrate(%016x, %s): %v", a.fp, a.mode, err)
		}
		if g.Fingerprint() != a.fp {
			t.Fatalf("Rehydrate(%016x, %s): graph fingerprint %016x", a.fp, a.mode, g.Fingerprint())
		}
		if !slices.Equal(colors, a.colors) {
			t.Fatalf("Rehydrate(%016x, %s): colors differ from the acknowledged ones", a.fp, a.mode)
		}
	}
}

// TestWALSnapshotConcurrentAppends races appenders against compaction:
// four goroutines append full colorings and 4-delta chains (some roots
// in both modes) with SnapshotEvery 8, while another calls Snapshot in
// a loop. Each chain ends by re-coloring its root, so a compaction
// sealed between the two colorings must not install the older one over
// the newer. After Close and re-Open every acknowledged (fp, mode) must
// rehydrate to its fingerprint and latest colors.
func TestWALSnapshotConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncNever, SnapshotEvery: 8})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const appenders, chains, hops = 4, 6, 4
	// Each appender's records are drawn up front, on the test goroutine.
	type op struct {
		baseFP  uint64 // 0 for a full coloring
		fp      uint64
		mode    string
		g       *bipartite.Graph
		ins     []bipartite.Edge
		rem     []bipartite.Edge
		colors  []int32
		readTip bool // rehydrate fp after appending it
	}
	plans := make([][]op, appenders)
	latest := map[string]acked{} // by fingerprint and mode
	for w := range plans {
		r := rand.New(rand.NewSource(int64(100 + w)))
		for c := 0; c < chains; c++ {
			g := testGraph(t, r, 16, 24, 60)
			root, cols := g, colorBGPC(t, g)
			plans[w] = append(plans[w], op{fp: g.Fingerprint(), mode: "bgpc", g: g, colors: cols})
			if c%3 == 0 {
				plans[w] = append(plans[w], op{fp: g.Fingerprint(), mode: "d2", g: g, colors: cols})
			}
			for h := 0; h < hops; h++ {
				// Removing a present edge makes every hop a real change.
				ins := []bipartite.Edge{{Net: int32(r.Intn(16)), Vtx: int32(r.Intn(24))}}
				rem := g.Edges()[:1]
				next, _, _, err := g.ApplyDelta(ins, rem)
				if err != nil {
					t.Fatalf("ApplyDelta: %v", err)
				}
				plans[w] = append(plans[w], op{baseFP: g.Fingerprint(), fp: next.Fingerprint(), mode: "bgpc",
					ins: ins, rem: rem, colors: colorBGPC(t, next), readTip: h == hops-1})
				g = next
			}
			// Shifting every color keeps the coloring valid and makes
			// it distinguishable from the first.
			recolored := make([]int32, len(cols))
			for i, c := range cols {
				recolored[i] = c + 1
			}
			plans[w] = append(plans[w], op{fp: root.Fingerprint(), mode: "bgpc", g: root, colors: recolored})
		}
		for _, o := range plans[w] {
			latest[fmt.Sprintf("%016x/%s", o.fp, o.mode)] = acked{o.fp, o.mode, o.colors}
		}
	}
	var all []acked
	for _, a := range latest {
		all = append(all, a)
	}

	var wg sync.WaitGroup
	for _, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range plan {
				var err error
				if o.g != nil {
					err = l.AppendFull(o.fp, o.mode, o.g, o.colors)
				} else {
					err = l.AppendDelta(o.baseFP, o.fp, o.mode, o.ins, o.rem, o.colors)
				}
				if err != nil {
					t.Errorf("append %016x: %v", o.fp, err)
					return
				}
				// Read the chain tip back while compactions come and go.
				if o.readTip {
					if g, _, err := l.Rehydrate(o.fp, o.mode); err != nil || g.Fingerprint() != o.fp {
						t.Errorf("live Rehydrate of chain tip %016x: %v", o.fp, err)
						return
					}
				}
			}
		}()
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapDone
	if t.Failed() {
		l.Close()
		t.FailNow()
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, stats := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if stats.QuarantinedSegments != 0 || stats.TruncatedBytes != 0 {
		t.Fatalf("clean log reported damage: %+v", stats)
	}
	checkAcked(t, l2, all)
}

// TestWALSnapshotCarryForwardExact pins carry-forward: a coloring
// already held as a full record is copied into the next snapshot byte
// for byte, so two snapshots with no appends between them are
// identical after the magic.
func TestWALSnapshotCarryForwardExact(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(13))
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncNever, SnapshotEvery: -1})
	var all []acked
	for i := 0; i < 4; i++ {
		g := testGraph(t, r, 20, 30, 100)
		cols := colorBGPC(t, g)
		if err := l.AppendFull(g.Fingerprint(), "bgpc", g, cols); err != nil {
			t.Fatalf("AppendFull: %v", err)
		}
		all = append(all, acked{g.Fingerprint(), "bgpc", cols})
		if i == 0 {
			if err := l.AppendFull(g.Fingerprint(), "d2", g, cols); err != nil {
				t.Fatalf("AppendFull d2: %v", err)
			}
			all = append(all, acked{g.Fingerprint(), "d2", cols})
		}
		for hop := 0; hop < 3; hop++ {
			ins := []bipartite.Edge{{Net: int32(hop), Vtx: int32(i + hop)}}
			next, _, _, err := g.ApplyDelta(ins, nil)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			ncols := colorBGPC(t, next)
			if err := l.AppendDelta(g.Fingerprint(), next.Fingerprint(), "bgpc", ins, nil, ncols); err != nil {
				t.Fatalf("AppendDelta: %v", err)
			}
			all = append(all, acked{next.Fingerprint(), "bgpc", ncols})
			g = next
		}
	}

	snapshotBytes := func() []byte {
		t.Helper()
		if err := l.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		seqs, names, err := l.listSegments()
		if err != nil || len(seqs) != 2 {
			t.Fatalf("segments after Snapshot = %d (err %v), want snapshot + active", len(seqs), err)
		}
		buf, err := os.ReadFile(filepath.Join(dir, names[seqs[0]]))
		if err != nil {
			t.Fatalf("read snapshot: %v", err)
		}
		return buf
	}
	first := snapshotBytes()
	second := snapshotBytes()
	if len(first) <= len(segMagic) {
		t.Fatal("first snapshot is empty")
	}
	if !bytes.Equal(first[len(segMagic):], second[len(segMagic):]) {
		t.Fatalf("snapshots differ: %d vs %d bytes", len(first), len(second))
	}
	checkAcked(t, l, all)
	l.Close()
	l2, _ := mustOpen(t, Options{Dir: dir})
	checkAcked(t, l2, all)
}

// TestSnapshotOffAppendLock holds a snapshot open at the wal.snapshot
// failpoint and shows appends, lookups and rehydration all return
// before the snapshot is installed. Install increments
// obs.WalSnapshots under the append lock, so an operation that had
// waited on that lock would see the count move. What was appended
// while the snapshot was held — a new fingerprint, and a newer
// coloring of one the snapshot holds — is what the log holds after the
// install and after recovery.
func TestSnapshotOffAppendLock(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	dir := t.TempDir()
	r := rand.New(rand.NewSource(14))
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncNever, SnapshotEvery: -1})
	g := testGraph(t, r, 20, 30, 100)
	colors := colorBGPC(t, g)
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colors); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	recolored := make([]int32, len(colors))
	for i, c := range colors {
		recolored[i] = c + 1 // still valid, and distinguishable
	}
	ins := []bipartite.Edge{{Net: 1, Vtx: 2}}
	next, _, _, err := g.ApplyDelta(ins, nil)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	nextColors := colorBGPC(t, next)
	want := []acked{{g.Fingerprint(), "bgpc", recolored}, {next.Fingerprint(), "bgpc", nextColors}}

	if err := failpoint.Arm(FPSnapshot, "delay:2s"); err != nil {
		t.Fatalf("arm failpoint: %v", err)
	}
	installed := obs.WalSnapshots.Load()
	snapDone := make(chan error, 1)
	go func() { snapDone <- l.Snapshot() }()
	deadline := time.Now().Add(10 * time.Second)
	for failpoint.Hits(FPSnapshot) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot never reached the wal.snapshot failpoint")
		}
		time.Sleep(time.Millisecond)
	}

	ops := []struct {
		name string
		run  func() error
	}{
		{"AppendFull", func() error {
			return l.AppendFull(g.Fingerprint(), "bgpc", g, recolored)
		}},
		{"AppendDelta", func() error {
			return l.AppendDelta(g.Fingerprint(), next.Fingerprint(), "bgpc", ins, nil, nextColors)
		}},
		{"HasColoring", func() error {
			if !l.HasColoring(next.Fingerprint(), "bgpc") {
				return errors.New("delta appended during the snapshot not indexed")
			}
			return nil
		}},
		{"Rehydrate", func() error {
			_, _, err := l.Rehydrate(next.Fingerprint(), "bgpc")
			return err
		}},
	}
	for _, op := range ops {
		done := make(chan error, 1)
		go func() { done <- op.run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s during snapshot: %v", op.name, err)
			}
		case err := <-snapDone:
			t.Fatalf("snapshot finished (err %v) before %s returned", err, op.name)
		}
		if obs.WalSnapshots.Load() != installed {
			t.Fatalf("%s returned only after the snapshot was installed", op.name)
		}
	}
	if err := <-snapDone; err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	checkAcked(t, l, want)
	l.Close()
	l2, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	checkAcked(t, l2, want)
}

// TestSnapshotFailureTripsFuse: an IO error while the snapshot is
// written degrades the log like a failed append, and the state it was
// compacting stays rehydratable from the segments it did not replace.
func TestSnapshotFailureTripsFuse(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	r := rand.New(rand.NewSource(15))
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever, SnapshotEvery: -1})
	g := testGraph(t, r, 10, 15, 40)
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	if err := failpoint.ArmFromSpec(FPSnapshot + "=err@1"); err != nil {
		t.Fatalf("arm failpoint: %v", err)
	}
	if err := l.Snapshot(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Snapshot under fault = %v, want ErrDegraded", err)
	}
	if !l.Degraded() {
		t.Fatal("fuse did not trip on snapshot failure")
	}
	if _, _, err := l.Rehydrate(g.Fingerprint(), "bgpc"); err != nil {
		t.Fatalf("Rehydrate after failed snapshot: %v", err)
	}
}

// TestWALSnapshotBytesPinned pins the exact bytes of one snapshot
// segment, so a change to how snapshots are built cannot change what
// they hold. The log mixes the shapes a snapshot pass has to order and
// replay: three interleaved 4-delta chains off full roots (one root
// also colored in d2), a delta fingerprint colored in both modes, a
// base re-touched by Rehydrate after its child, and a fourth chain
// whose root sits in a quarantined segment. That chain's four
// colorings are dropped and counted as replay-skipped; everything else
// must rehydrate from the snapshot.
func TestWALSnapshotBytesPinned(t *testing.T) {
	const wantSHA = "3ae9b9921dfb66cd446044a22f9aa4396e292f16547659e4c87848a710d50776"
	dir := t.TempDir()
	r := rand.New(rand.NewSource(2017))
	// SegmentBytes 1 puts every record in a segment of its own, so the
	// quarantined root takes nothing else with it.
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncNever, SegmentBytes: 1, SnapshotEvery: -1})
	var all []acked
	full := func(g *bipartite.Graph, mode string) {
		t.Helper()
		cols := colorBGPC(t, g)
		if err := l.AppendFull(g.Fingerprint(), mode, g, cols); err != nil {
			t.Fatalf("AppendFull: %v", err)
		}
		all = append(all, acked{g.Fingerprint(), mode, cols})
	}
	const chains, hops = 4, 4
	tips := make([]*bipartite.Graph, chains)
	for c := range tips {
		tips[c] = testGraph(t, r, 24, 32, 90)
		full(tips[c], "bgpc")
	}
	full(tips[0], "d2")
	var bothModes, retouched uint64
	quarantined := map[uint64]bool{}
	for h := 0; h < hops; h++ {
		for c, g := range tips {
			ins := []bipartite.Edge{{Net: int32(r.Intn(24)), Vtx: int32(r.Intn(32))}}
			rem := g.Edges()[:1]
			next, _, _, err := g.ApplyDelta(ins, rem)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			modes := []string{"bgpc"}
			if c == 1 && h == 2 {
				modes = append(modes, "d2")
				bothModes = next.Fingerprint()
			}
			if c == 0 && h == 1 {
				retouched = next.Fingerprint()
			}
			for _, mode := range modes {
				cols := colorBGPC(t, next)
				if err := l.AppendDelta(g.Fingerprint(), next.Fingerprint(), mode, ins, rem, cols); err != nil {
					t.Fatalf("AppendDelta: %v", err)
				}
				if c == chains-1 {
					quarantined[next.Fingerprint()] = true
				} else {
					all = append(all, acked{next.Fingerprint(), mode, cols})
				}
			}
			tips[c] = next
		}
	}
	if bothModes == 0 || retouched == 0 {
		t.Fatal("plan did not produce the both-modes or re-touched fingerprint")
	}

	// Quarantine the last chain's root: flip a payload byte of its
	// one-record segment.
	l.mu.Lock()
	rootSeg := l.index[all[chains-1].fp].full.seq
	l.mu.Unlock()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := l.segPath(rootSeg)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read root segment: %v", err)
	}
	buf[len(segMagic)+frameHeaderLen+4] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("corrupt root segment: %v", err)
	}
	all = slices.DeleteFunc(all, func(a acked) bool { return a.fp == all[chains-1].fp })

	l2, stats := mustOpen(t, Options{Dir: dir, Sync: SyncNever, SnapshotEvery: -1})
	if stats.QuarantinedSegments != 1 {
		t.Fatalf("quarantined = %d, want 1", stats.QuarantinedSegments)
	}
	// Re-touch chain 0's second fingerprint after its children.
	if _, _, err := l2.Rehydrate(retouched, "bgpc"); err != nil {
		t.Fatalf("Rehydrate(%016x): %v", retouched, err)
	}
	skipped := obs.WalReplaySkipped.Load()
	if err := l2.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := obs.WalReplaySkipped.Load() - skipped; got != hops {
		t.Errorf("snapshot skipped %d colorings, want the quarantined chain's %d", got, hops)
	}
	seqs, names, err := l2.listSegments()
	if err != nil || len(seqs) != 2 {
		t.Fatalf("segments after Snapshot = %d (err %v), want snapshot + active", len(seqs), err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, names[seqs[0]]))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(snap)); got != wantSHA {
		t.Errorf("snapshot segment (%d bytes) SHA-256 = %s, want %s", len(snap), got, wantSHA)
	}
	checkAcked(t, l2, all)
	for fp := range quarantined {
		if _, _, err := l2.Rehydrate(fp, "bgpc"); !errors.Is(err, ErrUnknown) {
			t.Errorf("Rehydrate of quarantined-chain %016x = %v, want ErrUnknown", fp, err)
		}
	}
	l2.Close()
	l3, _ := mustOpen(t, Options{Dir: dir})
	checkAcked(t, l3, all)
}

// TestWALSnapshotKeepsMaxChain: a snapshot pass that resumes a chain
// from a graph it already built still refuses what a full walk would.
// With MaxChain 2, the third and fourth deltas of a chain are too deep
// to rehydrate, so the snapshot drops and counts them even though it
// holds the second delta's graph when it reaches them.
func TestWALSnapshotKeepsMaxChain(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever, SnapshotEvery: -1, MaxChain: 2})
	g := testGraph(t, r, 16, 24, 60)
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	var fps []uint64
	for h := 0; h < 4; h++ {
		ins := []bipartite.Edge{{Net: int32(h), Vtx: int32(h)}}
		rem := g.Edges()[:1]
		next, _, _, err := g.ApplyDelta(ins, rem)
		if err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		if err := l.AppendDelta(g.Fingerprint(), next.Fingerprint(), "bgpc", ins, rem, colorBGPC(t, next)); err != nil {
			t.Fatalf("AppendDelta: %v", err)
		}
		fps = append(fps, next.Fingerprint())
		g = next
	}
	skipped := obs.WalReplaySkipped.Load()
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := obs.WalReplaySkipped.Load() - skipped; got != 2 {
		t.Errorf("snapshot skipped %d colorings, want the 2 past MaxChain", got)
	}
	for h, fp := range fps {
		_, _, err := l.Rehydrate(fp, "bgpc")
		if h < 2 && err != nil {
			t.Errorf("Rehydrate of delta %d: %v", h+1, err)
		}
		if h >= 2 && !errors.Is(err, ErrUnknown) {
			t.Errorf("Rehydrate of delta %d past MaxChain = %v, want ErrUnknown", h+1, err)
		}
	}
}

// TestWALSnapshotMemoFrontier: a snapshot pass over a 16-delta chain
// written in touch order holds at most two graphs at once, the last
// hop's base and the hop itself, and lets go of all of them by the end
// of the pass. Holding every graph on the chain until its tip is
// written would keep 17 full graphs alive.
func TestWALSnapshotMemoFrontier(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	l, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever, SnapshotEvery: -1})
	g := testGraph(t, r, 24, 32, 90)
	if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
		t.Fatalf("AppendFull: %v", err)
	}
	const hops = 16
	for h := 0; h < hops; h++ {
		ins := []bipartite.Edge{{Net: int32(r.Intn(24)), Vtx: int32(r.Intn(32))}}
		rem := g.Edges()[:1]
		next, _, _, err := g.ApplyDelta(ins, rem)
		if err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		if err := l.AppendDelta(g.Fingerprint(), next.Fingerprint(), "bgpc", ins, rem, colorBGPC(t, next)); err != nil {
			t.Fatalf("AppendDelta: %v", err)
		}
		g = next
	}
	l.mu.Lock()
	entries := make([]snapEntry, 0, len(l.index))
	for fp, st := range l.index {
		entries = append(entries, snapEntry{fp: fp, st: *st})
	}
	l.mu.Unlock()
	if len(entries) != hops+1 {
		t.Fatalf("index holds %d fingerprints, want %d", len(entries), hops+1)
	}

	memo := newChainMemo(entries)
	skipped := obs.WalReplaySkipped.Load()
	w := bufio.NewWriter(io.Discard)
	w.WriteString(segMagic)
	l.writeFrames(w, entries, memo)
	if got := obs.WalReplaySkipped.Load() - skipped; got != 0 {
		t.Fatalf("pass skipped %d colorings, want 0", got)
	}
	for _, e := range entries {
		if e.placed[modeBGPC] == 0 {
			t.Fatalf("fingerprint %016x was not written", e.fp)
		}
	}
	if memo.peak < 1 || memo.peak > 2 {
		t.Errorf("memo held up to %d graphs at once, want 1 or 2", memo.peak)
	}
	if len(memo.graphs) != 0 || len(memo.refs) != 0 {
		t.Errorf("memo keeps %d graphs and %d holds after the pass, want none", len(memo.graphs), len(memo.refs))
	}
}
