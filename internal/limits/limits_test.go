package limits

import (
	"errors"
	"io"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"bgpc/internal/failpoint"
)

func TestEstimateBytesGrowsWithShape(t *testing.T) {
	small := Shape{Rows: 100, Cols: 100, NNZ: 1000, Threads: 1}
	big := Shape{Rows: 10000, Cols: 10000, NNZ: 1000000, Threads: 1}
	sb := EstimateBytes(small)
	bb := EstimateBytes(big)
	if sb <= 0 || bb <= 0 {
		t.Fatalf("estimates must be positive: small=%d big=%d", sb, bb)
	}
	if bb <= sb {
		t.Fatalf("bigger shape must estimate bigger: small=%d big=%d", sb, bb)
	}
}

func TestEstimateBytesDominatedByEdges(t *testing.T) {
	// The estimate must charge at least the CSR + staging cost of the
	// edges: 2×8 (staging) + 2×4 (dual CSR adjacency) = 24 bytes/edge.
	sh := Shape{Rows: 10, Cols: 10, NNZ: 1 << 20, Threads: 1}
	if got, min := EstimateBytes(sh), int64(24)<<20; got < min {
		t.Fatalf("EstimateBytes(%+v) = %d, want >= %d", sh, got, min)
	}
}

func TestEstimateBytesVariants(t *testing.T) {
	base := Shape{Rows: 1000, Cols: 1000, NNZ: 50000, Threads: 4}
	d2 := base
	d2.D2 = true
	if EstimateBytes(d2) <= EstimateBytes(base) {
		t.Fatal("distance-2 shape must estimate bigger than distance-1")
	}
	wide := base
	wide.Threads = 64
	if EstimateBytes(wide) <= EstimateBytes(base) {
		t.Fatal("more threads must estimate bigger (per-thread forbidden arrays)")
	}
}

// TestEstimateBytesIncludesMasks: the estimate charges the coloring
// masks' bound on top of its other terms, at least 2 bytes per
// nonzero for the mask words. internal/core's TestMasksWithinEstimate
// checks the bound against the masks a run keeps.
func TestEstimateBytesIncludesMasks(t *testing.T) {
	sh := Shape{Rows: 1000, Cols: 1000, NNZ: 1 << 20, Threads: 4}
	mask := MaskBytes(sh)
	if mask < 2*sh.NNZ {
		t.Fatalf("MaskBytes(%+v) = %d, want >= %d", sh, mask, 2*sh.NNZ)
	}
	if got, min := EstimateBytes(sh), int64(24)*sh.NNZ+mask; got < min {
		t.Fatalf("EstimateBytes(%+v) = %d, want >= %d with the masks", sh, got, min)
	}
	hostile := Shape{Rows: math.MaxInt32, Cols: math.MaxInt32, NNZ: math.MaxInt64, Threads: 1 << 20}
	if got := MaskBytes(hostile); got != math.MaxInt64 {
		t.Fatalf("MaskBytes(%+v) = %d, want MaxInt64", hostile, got)
	}
}

func TestEstimateBytesSaturates(t *testing.T) {
	// A hostile header can claim shapes whose byte cost overflows
	// int64. The estimate must clamp at MaxInt64, not wrap negative —
	// a wrapped estimate would sail under any budget.
	hostile := []Shape{
		{Rows: math.MaxInt32, Cols: math.MaxInt32, NNZ: math.MaxInt64, Threads: 1 << 20},
		{Rows: 1, Cols: 1, NNZ: math.MaxInt64, D2: true, Threads: 1},
		{Rows: math.MaxInt32, Cols: math.MaxInt32, NNZ: 1 << 50, Threads: math.MaxInt32},
	}
	for _, sh := range hostile {
		got := EstimateBytes(sh)
		if got <= 0 {
			t.Fatalf("EstimateBytes(%+v) = %d: wrapped or non-positive", sh, got)
		}
	}
	if got := EstimateBytes(hostile[0]); got != math.MaxInt64 {
		t.Fatalf("max-everything shape must saturate to MaxInt64, got %d", got)
	}
}

func TestSaturatingOps(t *testing.T) {
	if got := satAdd(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Fatalf("satAdd overflow: got %d", got)
	}
	if got := satMul(math.MaxInt64/2, 3); got != math.MaxInt64 {
		t.Fatalf("satMul overflow: got %d", got)
	}
	if got := satMul(1<<32, 1<<32); got != math.MaxInt64 {
		t.Fatalf("satMul large overflow: got %d", got)
	}
	if got := satAdd(2, 3); got != 5 {
		t.Fatalf("satAdd(2,3) = %d", got)
	}
	if got := satMul(6, 7); got != 42 {
		t.Fatalf("satMul(6,7) = %d", got)
	}
}

func TestBudgetAcquireRelease(t *testing.T) {
	b := NewBudget(1000)
	if err := b.TryAcquire(600); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if got := b.InFlight(); got != 600 {
		t.Fatalf("InFlight = %d, want 600", got)
	}
	// Momentarily full: retryable error.
	if err := b.TryAcquire(600); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-budget acquire: got %v, want ErrBudget", err)
	}
	// Bigger than the whole capacity: permanent error, even while busy.
	if err := b.TryAcquire(1001); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized acquire: got %v, want ErrTooLarge", err)
	}
	b.Release(600)
	if got := b.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
	if err := b.TryAcquire(1000); err != nil {
		t.Fatalf("full-capacity acquire after release: %v", err)
	}
}

func TestBudgetNilIsUnlimited(t *testing.T) {
	var b *Budget
	if err := b.TryAcquire(math.MaxInt64); err != nil {
		t.Fatalf("nil budget must admit everything: %v", err)
	}
	b.Release(math.MaxInt64)
	if got := b.InFlight(); got != 0 {
		t.Fatalf("nil budget InFlight = %d", got)
	}
	if nb := NewBudget(0); nb != nil {
		t.Fatal("NewBudget(0) must return nil (unlimited)")
	}
	if nb := NewBudget(-5); nb != nil {
		t.Fatal("NewBudget(<0) must return nil (unlimited)")
	}
}

func TestBudgetReleaseClampsAtZero(t *testing.T) {
	b := NewBudget(100)
	b.Release(50) // spurious release must not create phantom headroom
	if got := b.InFlight(); got != 0 {
		t.Fatalf("InFlight after spurious release = %d, want 0", got)
	}
	if err := b.TryAcquire(150); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("capacity must not inflate: got %v", err)
	}
}

func TestBudgetConcurrent(t *testing.T) {
	// 64 goroutines fight over a budget admitting at most 4 units at a
	// time; the invariant is that in-flight never exceeds capacity and
	// drains to exactly zero.
	b := NewBudget(4)
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := b.TryAcquire(1); err != nil {
					if !errors.Is(err, ErrBudget) {
						t.Errorf("unexpected acquire error: %v", err)
						return
					}
					continue
				}
				if got := b.InFlight(); got > 4 {
					t.Errorf("in-flight %d exceeds capacity 4", got)
				}
				b.Release(1)
			}
		}()
	}
	wg.Wait()
	if got := b.InFlight(); got != 0 {
		t.Fatalf("leaked budget: in-flight = %d after drain", got)
	}
}

func TestEstimateFailpoint(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.ArmFromSpec(FPEstimate + "=err"); err != nil {
		t.Fatal(err)
	}
	_, err := Estimate(Shape{Rows: 10, Cols: 10, NNZ: 10, Threads: 1})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("injected estimate fault must be retryable (ErrBudget), got %v", err)
	}
	failpoint.Reset()
	if _, err := Estimate(Shape{Rows: 10, Cols: 10, NNZ: 10, Threads: 1}); err != nil {
		t.Fatalf("disarmed estimate: %v", err)
	}
}

func TestDefaultBudgetBytesFollowsGOMEMLIMIT(t *testing.T) {
	old := debug.SetMemoryLimit(-1)
	defer debug.SetMemoryLimit(old)

	debug.SetMemoryLimit(1 << 30)
	if got := DefaultBudgetBytes(); got != 1<<29 {
		t.Fatalf("DefaultBudgetBytes with GOMEMLIMIT=1GiB = %d, want %d", got, 1<<29)
	}
	debug.SetMemoryLimit(math.MaxInt64) // "unset"
	if got := DefaultBudgetBytes(); got != 0 {
		t.Fatalf("DefaultBudgetBytes with no limit = %d, want 0", got)
	}
}

func TestParseLimitsWithDefaults(t *testing.T) {
	var zero ParseLimits
	d := zero.WithDefaults()
	if d.MaxRows <= 0 || d.MaxCols <= 0 || d.MaxNNZ <= 0 || d.MaxLineBytes <= 0 {
		t.Fatalf("defaults must be positive: %+v", d)
	}
	custom := ParseLimits{MaxRows: 7, MaxCols: 8, MaxNNZ: 9, MaxLineBytes: 10}
	if got := custom.WithDefaults(); got != custom {
		t.Fatalf("explicit limits must pass through unchanged: %+v", got)
	}
}

// TestReadAllSized: ReadAll returns the whole body whatever the
// declared length says, reads a body whose length was declared into a
// single buffer, and never lets the declaration size that first buffer
// past max or 64 KiB.
func TestReadAllSized(t *testing.T) {
	body := strings.Repeat("x", 3000)
	for _, declared := range []int64{-1, 0, 10, 3000, 3001, 1 << 40} {
		got, err := ReadAll(strings.NewReader(body), declared, 1<<20)
		if err != nil || string(got) != body {
			t.Fatalf("declared %d: got %d bytes, err %v", declared, len(got), err)
		}
	}
	r := strings.NewReader(body)
	if n := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		_, _ = ReadAll(r, int64(len(body)), 1<<20)
	}); n != 1 {
		t.Errorf("declared-length read allocated %v times, want 1", n)
	}
	if got, _ := ReadAll(strings.NewReader(body), 1<<40, 1<<20); cap(got) != 64<<10+1 {
		t.Errorf("a huge declared length sized the buffer to %d bytes", cap(got))
	}
	if got, _ := ReadAll(strings.NewReader("ab"), 1<<40, 100); cap(got) != 101 {
		t.Errorf("declared length not clamped to max: cap %d", cap(got))
	}
	wantErr := errors.New("boom")
	if _, err := ReadAll(io.MultiReader(strings.NewReader("ab"), iotest.ErrReader(wantErr)), 2, 100); !errors.Is(err, wantErr) {
		t.Errorf("read error lost: %v", err)
	}
}
