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
// sinks concurrently, as concurrent requests and phases do.

func TestCountersConcurrentStress(t *testing.T) {
	const goroutines = 32
	const perG = 2000
	ResetMetrics()
	defer ResetMetrics()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				SvcAccepted.Inc()
				RtrProxied.Inc()
				WalSyncs.Add(3)
			}
		}()
	}
	wg.Wait()
	if got := SvcAccepted.Load(); got != goroutines*perG {
		t.Fatalf("accepted = %d, want %d (lost updates)", got, goroutines*perG)
	}
	if got := RtrProxied.Load(); got != goroutines*perG {
		t.Fatalf("proxied = %d, want %d", got, goroutines*perG)
	}
	if got := WalSyncs.Load(); got != int64(goroutines*perG*3) {
		t.Fatalf("syncs = %d, want %d", got, goroutines*perG*3)
	}
}

func TestCountersConcurrentWithToggleAndSnapshot(t *testing.T) {
	// Writers racing exposition and Reset readers: no ordering
	// guarantees, but the race detector must stay silent.
	ResetMetrics()
	defer ResetMetrics()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			SvcAccepted.Inc()
			WalSyncs.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			var buf bytes.Buffer
			_ = WritePrometheus(&buf)
			if i%50 == 0 {
				ResetMetrics()
			}
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
