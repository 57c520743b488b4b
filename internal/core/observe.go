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

// emitPhaseEvent assembles the trace event for one finished phase and
// hands it to the Observer and the request Recorder. Callers must have
// checked that one of them is enabled, so the disabled path never
// reaches the Event assembly. When o.stats is armed the event
// additionally carries the phase's chunk-dispatch count (the take
// resets the accumulator, so each event sees only its own phase).
func emitPhaseEvent(tr *obs.Observer, rec *obs.Recorder, o *Options, s scratch, iter int, phase string, netBased bool,
	items, conflicts int, c *Colors, wall time.Duration, work, maxWork int64) {
	e := obs.Event{
		Iter:       iter,
		Phase:      phase,
		Kind:       phaseKind(netBased),
		Sched:      "dynamic",
		Chunk:      o.chunk(),
		Threads:    o.threads(),
		Items:      items,
		Conflicts:  conflicts,
		Colors:     distinctColors(c.Raw(), &s[0].forb),
		WallNS:     wall.Nanoseconds(),
		Work:       work,
		MaxWork:    maxWork,
		Dispatches: o.stats.TakeDispatches(),
	}
	tr.Emit(e)
	rec.Emit(e)
}
