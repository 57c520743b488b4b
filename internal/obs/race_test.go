package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// These stress tests exist to run under `go test -race` (CI runs the
// whole module with -race): many goroutines hammer the counters and
// sinks concurrently, which is exactly how the parallel phases use
// them.

func TestCountersConcurrentStress(t *testing.T) {
	const goroutines = 32
	const perG = 2000
	ResetMetrics()
	EnableMetrics(true)
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				CountDispatch()
				CountQueuePush()
				CountForbiddenScans(3)
				_ = MetricsEnabled()
			}
		}()
	}
	wg.Wait()
	snap := Snapshot()
	if got := snap["bgpc.chunk_dispatches"]; got != goroutines*perG {
		t.Fatalf("dispatches = %d, want %d (lost updates)", got, goroutines*perG)
	}
	if got := snap["bgpc.shared_queue_pushes"]; got != goroutines*perG {
		t.Fatalf("pushes = %d, want %d", got, goroutines*perG)
	}
	if got := snap["bgpc.forbidden_scans"]; got != int64(goroutines*perG*3) {
		t.Fatalf("scans = %d, want %d", got, goroutines*perG*3)
	}
}

func TestCountersConcurrentWithToggleAndSnapshot(t *testing.T) {
	// Writers racing EnableMetrics toggles and Snapshot/Reset readers:
	// no ordering guarantees, but the race detector must stay silent.
	ResetMetrics()
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			EnableMetrics(i%2 == 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			CountDispatch()
			CountForbiddenScans(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = Snapshot()
			var buf bytes.Buffer
			_ = WriteMetrics(&buf)
		}
	}()
	wg.Wait()
}

func TestJSONLSinkConcurrentEmit(t *testing.T) {
	const goroutines = 8
	const perG = 200
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	o := New(s)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				o.Emit(sampleEvent())
			}
		}()
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("got %d lines, want %d (interleaved writes?)", len(lines), goroutines*perG)
	}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("corrupt line %q: %v", line, err)
		}
	}
}
