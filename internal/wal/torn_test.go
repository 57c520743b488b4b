package wal

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bgpc/internal/failpoint"
	"bgpc/internal/verify"
)

// The torn-write battery: take one valid segment holding three full
// records, then damage it at every byte position — once by flipping a
// bit, once by truncating the file there — and recover. The contract
// under any single-point damage is prefix semantics: every record
// wholly before the damage survives and rehydrates to a verifying
// coloring; the damaged record and everything after it is cut; Open
// never fails and never panics. This is the on-disk mirror of what a
// crash mid-write (torn frame) or a bad sector (bit rot) does.

// buildSegment writes a clean log of n full colorings into dir and
// returns the segment path, the frame start offsets (magic included as
// offset base), and the appended fingerprints in order.
func buildSegment(t *testing.T, dir string, n int) (path string, bounds []int64, fps []uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(20))
	l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncAlways, SnapshotEvery: -1})
	for i := 0; i < n; i++ {
		g := testGraph(t, r, 10, 15, 40)
		if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
			t.Fatalf("AppendFull: %v", err)
		}
		fps = append(fps, g.Fingerprint())
	}
	seqs, names, err := l.listSegments()
	if err != nil || len(seqs) != 1 {
		t.Fatalf("want exactly one segment, have %d (err %v)", len(seqs), err)
	}
	path = filepath.Join(dir, names[seqs[0]])
	l.Close()

	// Walk the clean file to learn each frame's start offset.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	br := bytes.NewReader(buf[len(segMagic):])
	off := int64(len(segMagic))
	for {
		bounds = append(bounds, off)
		_, fn, err := readFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("clean segment does not parse: %v", err)
		}
		off += fn
	}
	if bounds[len(bounds)-1] != int64(len(buf)) {
		t.Fatalf("frame walk ended at %d, file is %d", bounds[len(bounds)-1], len(buf))
	}
	return path, bounds, fps
}

// survivors reports how many leading records are wholly before a
// damage offset.
func survivors(bounds []int64, damage int64) int {
	n := 0
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i+1] <= damage {
			n++
		}
	}
	return n
}

// checkRecovered opens the damaged dir and asserts prefix semantics.
func checkRecovered(t *testing.T, dir string, fps []uint64, wantRecords int, damage int64, kind string) {
	t.Helper()
	l, stats, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("%s at %d: Open failed: %v", kind, damage, err)
	}
	defer l.Close()
	if stats.Records != wantRecords || stats.QuarantinedSegments != 0 {
		t.Fatalf("%s at %d: recovered %d records with %d quarantined segments, want %d and none (stats %+v)",
			kind, damage, stats.Records, stats.QuarantinedSegments, wantRecords, stats)
	}
	for i, fp := range fps {
		g, colors, err := l.Rehydrate(fp, "bgpc")
		if i < wantRecords {
			if err != nil {
				t.Fatalf("%s at %d: surviving record %d lost: %v", kind, damage, i, err)
			}
			if g.Fingerprint() != fp {
				t.Fatalf("%s at %d: record %d fingerprint mismatch", kind, damage, i)
			}
			if verr := verify.BGPC(g, colors); verr != nil {
				t.Fatalf("%s at %d: record %d coloring invalid: %v", kind, damage, i, verr)
			}
		} else if err == nil {
			t.Fatalf("%s at %d: record %d should have been cut, rehydrated fine", kind, damage, i)
		}
	}
}

func TestTornWriteBitFlips(t *testing.T) {
	master := t.TempDir()
	path, bounds, fps := buildSegment(t, master, 3)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read clean segment: %v", err)
	}
	name := filepath.Base(path)

	for off := 0; off < len(clean); off++ {
		dir := t.TempDir()
		damaged := append([]byte(nil), clean...)
		damaged[off] ^= 1 << uint(off%8)
		if err := os.WriteFile(filepath.Join(dir, name), damaged, 0o644); err != nil {
			t.Fatalf("write damaged copy: %v", err)
		}
		// A flip inside the magic kills the whole (last) segment; any
		// other flip is caught by the CRC (single-bit errors are in
		// CRC32C's guaranteed detection class) and cuts at that frame.
		want := 0
		if off >= len(segMagic) {
			want = survivors(bounds, int64(off))
		}
		checkRecovered(t, dir, fps, want, int64(off), "bitflip")
	}
}

func TestTornWriteTruncations(t *testing.T) {
	master := t.TempDir()
	path, bounds, fps := buildSegment(t, master, 3)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read clean segment: %v", err)
	}
	name := filepath.Base(path)

	for off := 0; off <= len(clean); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), clean[:off], 0o644); err != nil {
			t.Fatalf("write truncated copy: %v", err)
		}
		want := 0
		if off >= len(segMagic) {
			want = survivors(bounds, int64(off))
		}
		checkRecovered(t, dir, fps, want, int64(off), "truncate")
	}
}

// TestTornWriteGarbageTail appends random garbage after a valid log —
// a crash that wrote the frame header but trash beyond it. The tail
// must be cut without losing the valid prefix, twice in a row
// (recovery must be idempotent).
func TestTornWriteGarbageTail(t *testing.T) {
	dir := t.TempDir()
	path, bounds, fps := buildSegment(t, dir, 3)
	r := rand.New(rand.NewSource(21))
	garbage := make([]byte, 100)
	r.Read(garbage)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open for append: %v", err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	f.Close()
	checkRecovered(t, dir, fps, len(fps), bounds[len(bounds)-1], "garbage-tail")
	checkRecovered(t, dir, fps, len(fps), bounds[len(bounds)-1], "garbage-tail-again")
}

// TestTornTailAfterSeal carries the contract across a snapshot's seal
// of the active segment A. A power loss keeps only what was fsynced,
// and recovery cuts a torn tail only from the last segment, so A must
// be durable before A+2 exists. Each row stops a seal at one point,
// checks which segments are on disk, then tears the last 3 bytes off
// the last one, as a power loss would its unsynced tail. Recovery must
// cut, never quarantine, and keep every record before the tear.
func TestTornTailAfterSeal(t *testing.T) {
	const n = 3
	cases := []struct {
		name    string
		arm     string   // failpoint schedule
		snapErr bool     // Snapshot fails
		synced  bool     // A's fsync in the seal succeeded
		segs    []uint64 // segments on disk after the seal; A is 1
		want    int      // records recovered after the tear
	}{
		// A's fsync fails: A+2 is never created, A stays last and
		// loses only its torn final record.
		{"seal-fsync-fails", FPSync + "=err@1", true, false, []uint64{1}, n - 1},
		// The snapshot write fails after the seal: A is whole and the
		// tear lands in A+2, which holds only its header.
		{"snapshot-write-fails", FPSync + "=delay:0s;" + FPSnapshot + "=err@1", true, true, []uint64{1, 3}, n},
		{"snapshot-installed", FPSync + "=delay:0s", false, true, []uint64{2, 3}, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			dir := t.TempDir()
			r := rand.New(rand.NewSource(22))
			l, _ := mustOpen(t, Options{Dir: dir, Sync: SyncNever, SnapshotEvery: -1})
			var fps []uint64
			for i := 0; i < n; i++ {
				g := testGraph(t, r, 10, 15, 40)
				if err := l.AppendFull(g.Fingerprint(), "bgpc", g, colorBGPC(t, g)); err != nil {
					t.Fatalf("AppendFull: %v", err)
				}
				fps = append(fps, g.Fingerprint())
			}
			if err := failpoint.ArmFromSpec(tc.arm); err != nil {
				t.Fatalf("arm failpoints: %v", err)
			}
			if err := l.Snapshot(); (err != nil) != tc.snapErr {
				t.Fatalf("Snapshot = %v, want failure %v", err, tc.snapErr)
			}
			// Under SyncNever the seal's is the only fsync of A.
			if hits := failpoint.Hits(FPSync); tc.synced && hits != 1 {
				t.Fatalf("sealed segment fsynced %d times, want 1", hits)
			}
			seqs, _, err := l.listSegments()
			if err != nil {
				t.Fatalf("listSegments: %v", err)
			}
			l.Close()
			failpoint.Reset()
			if !slices.Equal(seqs, tc.segs) {
				t.Fatalf("segments after the seal = %v, want %v", seqs, tc.segs)
			}
			last := l.segPath(seqs[len(seqs)-1])
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatalf("stat last segment: %v", err)
			}
			if err := os.Truncate(last, fi.Size()-3); err != nil {
				t.Fatalf("tear last segment: %v", err)
			}
			checkRecovered(t, dir, fps, tc.want, fi.Size()-3, tc.name)
		})
	}
}
