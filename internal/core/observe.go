package core

import (
	"time"

	"bgpc/internal/obs"
)

// phaseKind maps a phase's net/vertex flavour to its trace-event kind
// label.
func phaseKind(netBased bool) string {
	if netBased {
		return obs.KindNet
	}
	return obs.KindVertex
}

// usedColors counts the distinct colors currently assigned. It reads
// the raw color array, so it must only run between parallel phases.
// It is trace-path-only: the runner never calls it without an enabled
// Observer.
func usedColors(c *Colors) int { return countDistinct(c.Raw()) }

// emitPhaseEvent assembles and emits the trace event for one finished
// phase. Callers must have checked tr.Enabled() so the disabled path
// never reaches the Event assembly. When o.Stats is armed the event
// additionally carries the phase's chunk-dispatch count (the take
// resets the accumulator, so each event sees only its own phase).
func emitPhaseEvent(tr *obs.Observer, o *Options, iter int, phase string, netBased bool,
	items, conflicts int, c *Colors, wall time.Duration, work, maxWork int64) {
	tr.Emit(obs.Event{
		Iter:       iter,
		Phase:      phase,
		Kind:       phaseKind(netBased),
		Sched:      "dynamic",
		Chunk:      o.chunk(),
		Threads:    o.threads(),
		Items:      items,
		Conflicts:  conflicts,
		Colors:     usedColors(c),
		WallNS:     wall.Nanoseconds(),
		Work:       work,
		MaxWork:    maxWork,
		Dispatches: o.Stats.TakeDispatches(),
	})
}
