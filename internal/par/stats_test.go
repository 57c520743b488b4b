package par

import (
	"testing"

	"bgpc/internal/obs"
)

// TestForCountsDispatchesIntoStats: an armed Options.Stats must see one
// count per chunk hand-out — the telemetry the per-phase trace events
// carry.
func TestForCountsDispatchesIntoStats(t *testing.T) {
	const n = 1000
	t.Run("dynamic", func(t *testing.T) {
		st := &obs.LoopStats{}
		For(n, Options{Threads: 4, Chunk: 64, Stats: st}, func(tid, lo, hi int) {})
		got := st.TakeDispatches()
		// ceil(1000/64) = 16 chunks; every chunk is one dispatch, and
		// each worker burns one final empty grab that is not counted.
		if got != 16 {
			t.Fatalf("dynamic dispatches = %d, want 16", got)
		}
	})
	// One thread and no Canceler: the loop runs its range in one call
	// whether Stats is armed or not, and counts that call.
	t.Run("one thread", func(t *testing.T) {
		st := &obs.LoopStats{}
		var calls [][2]int
		For(n, Options{Threads: 1, Chunk: 64, Stats: st}, func(tid, lo, hi int) {
			calls = append(calls, [2]int{lo, hi})
		})
		if len(calls) != 1 || calls[0] != [2]int{0, n} {
			t.Fatalf("one-thread calls = %v, want [[0 %d]]", calls, n)
		}
		if got := st.TakeDispatches(); got != 1 {
			t.Fatalf("one-thread dispatches = %d, want 1", got)
		}
	})
	t.Run("nil stats is valid", func(t *testing.T) {
		coverageCheck(t, n, Options{Threads: 4, Chunk: 32, Stats: nil})
	})
}
