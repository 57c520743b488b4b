package wal

import (
	"bytes"
	"errors"
	"fmt"
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
