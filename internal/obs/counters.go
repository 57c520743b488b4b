package obs

import "sync/atomic"

// Counter is a cache-line-padded atomic event counter. The padding
// keeps independent counters off each other's cache lines, so request
// paths bumping different counters do not falsely share one.
type Counter struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Service-layer counters (internal/service). They sit on request
// paths, not per-vertex paths, and a daemon must always be able to
// report its admission behaviour.
var (
	// SvcAccepted counts jobs admitted into the worker-pool queue.
	SvcAccepted Counter
	// SvcRejected counts jobs refused at admission (queue full → 429).
	SvcRejected Counter
	// SvcCompleted counts jobs that ran to a fixed point in deadline.
	SvcCompleted Counter
	// SvcDegraded counts jobs whose deadline expired and were finished
	// by the sequential graceful-degradation path.
	SvcDegraded Counter
	// SvcCacheHits / SvcCacheMisses count content-hash graph cache
	// lookups.
	SvcCacheHits   Counter
	SvcCacheMisses Counter
	// SvcPanics counts panics contained by the serving layer — a job
	// that panicked on a pool worker or a handler that panicked on its
	// request goroutine. Each one became a structured 500, not a crash.
	SvcPanics Counter
	// SvcQuarantined counts requests refused because their graph
	// fingerprint was quarantined after repeated worker panics.
	SvcQuarantined Counter
	// SvcWatchdogFired counts jobs the progress watchdog canceled for
	// making no conflict-count progress across its window.
	SvcWatchdogFired Counter
	// SvcTooLarge counts jobs refused outright because their estimated
	// footprint exceeds a hard cap or the whole memory budget (413 —
	// retrying cannot help).
	SvcTooLarge Counter
	// SvcBudgetRejected counts jobs refused because the byte budget was
	// momentarily exhausted (429 with Retry-After — retrying helps).
	SvcBudgetRejected Counter
	// SvcDeltaApplied counts delta-recoloring jobs that produced a
	// verified coloring of the mutated graph.
	SvcDeltaApplied Counter
	// SvcDeltaMisses counts delta requests refused with 404 because the
	// base fingerprint (or its coloring for the requested mode) was not
	// cached — the client's cue to fall back to a full color.
	SvcDeltaMisses Counter
	// SvcWalRehydrated counts delta requests whose base fingerprint was
	// evicted from the cache but rebuilt from the write-ahead log — the
	// durability layer turning a would-be 404 into a served delta.
	SvcWalRehydrated Counter
)

// Write-ahead-log counters (internal/wal): the durability layer that
// persists accepted colorings and delta applications so warm-start
// state survives restarts. Request-path adjacent, bumped
// unconditionally.
var (
	// WalAppends counts records durably accepted by the log.
	WalAppends Counter
	// WalAppendErrors counts append attempts that failed on IO (disk
	// full, injected fault); the first one trips the one-way degraded
	// fuse.
	WalAppendErrors Counter
	// WalSyncs counts fsyncs of the active segment: the batches the
	// configured policy issues, plus one per segment sealed at rotation
	// or snapshot.
	WalSyncs Counter
	// WalReplayed counts records recovered (CRC-valid and decoded) from
	// the log during Open.
	WalReplayed Counter
	// WalReplaySkipped counts records dropped during recovery or
	// rehydration because their base fingerprint chain was broken (e.g.
	// the base lived in a quarantined segment).
	WalReplaySkipped Counter
	// WalTruncatedRecords counts torn tail records cut off at the first
	// bad CRC or short frame during recovery.
	WalTruncatedRecords Counter
	// WalQuarantinedSegments counts corrupted segments renamed aside
	// (.corrupt) instead of blocking startup.
	WalQuarantinedSegments Counter
	// WalSnapshots counts snapshot compactions: the live fingerprint
	// state rewritten into one segment so older segments can truncate.
	WalSnapshots Counter
)

// Client-side counters (internal/client): the daemon's HTTP client
// with bounded retries and backoff.
var (
	// ClientRetries counts attempts beyond the first (each one followed
	// a backoff sleep).
	ClientRetries Counter
)

// Router counters (internal/router): the fleet front that consistent-
// hashes jobs across backend daemons. Like the service counters they
// sit on request paths and are bumped unconditionally.
var (
	// RtrProxied counts requests the router forwarded to a backend
	// (deduped followers do not count — their job ran once).
	RtrProxied Counter
	// RtrDedupHits counts requests collapsed into an identical in-flight
	// job by the singleflight layer (one per follower).
	RtrDedupHits Counter
	// RtrSpillovers counts budget-aware reroutes: the ring owner
	// answered 429/413 and the job spilled to the next ring member.
	RtrSpillovers Counter
	// RtrFailovers counts reroutes past a down or ejected owner to its
	// ring successor (transport failure, 5xx, or health ejection).
	RtrFailovers Counter
	// RtrDeltaMissHops counts delta hops a backend answered 404 (it
	// does not hold the base) before the router walked on.
	RtrDeltaMissHops Counter
	// RtrEjections counts suspect→ejected health transitions.
	RtrEjections Counter
	// RtrRecoveries counts probing→healthy health transitions (an
	// ejected backend passed its recovery probes and rejoined the ring).
	RtrRecoveries Counter
)

// Flight-recorder counters (internal/trace). Bumped only on anomaly
// triggers, so bumped unconditionally.
var (
	// DiagBundles counts diagnostic bundles written by the flight
	// recorder.
	DiagBundles Counter
	// DiagSuppressed counts anomaly triggers swallowed by the flight
	// recorder's cooldown or because a bundle write was in progress.
	DiagSuppressed Counter
	// DiagErrors counts bundle writes that failed partway (disk error);
	// partial bundles are left marked, never mistaken for complete ones.
	DiagErrors Counter
)

// counters lists every counter with its name and its Prometheus HELP
// text, in one place so ResetMetrics and WritePrometheus cannot drift
// and no counter is exposed undocumented.
var counters = []struct {
	name string
	c    *Counter
	help string
}{
	{"bgpc.svc_accepted", &SvcAccepted, "Jobs admitted into the worker-pool queue."},
	{"bgpc.svc_rejected", &SvcRejected, "Jobs refused at admission."},
	{"bgpc.svc_completed", &SvcCompleted, "Jobs that ran to a fixed point in deadline."},
	{"bgpc.svc_degraded", &SvcDegraded, "Jobs finished by the sequential degradation path."},
	{"bgpc.svc_cache_hits", &SvcCacheHits, "Content-hash graph cache hits."},
	{"bgpc.svc_cache_misses", &SvcCacheMisses, "Content-hash graph cache misses."},
	{"bgpc.svc_panics", &SvcPanics, "Panics contained by the serving layer."},
	{"bgpc.svc_quarantined", &SvcQuarantined, "Requests refused because their graph is quarantined."},
	{"bgpc.svc_watchdog_fired", &SvcWatchdogFired, "Jobs canceled by the progress watchdog."},
	{"bgpc.svc_too_large", &SvcTooLarge, "Jobs refused outright for exceeding a memory cap."},
	{"bgpc.svc_budget_rejected", &SvcBudgetRejected, "Jobs refused because the byte budget was exhausted."},
	{"bgpc.svc_delta_applied", &SvcDeltaApplied, "Delta-recoloring jobs that produced a verified coloring."},
	{"bgpc.svc_delta_misses", &SvcDeltaMisses, "Delta requests 404ed on an uncached base fingerprint."},
	{"bgpc.svc_wal_rehydrated", &SvcWalRehydrated, "Delta bases rebuilt from the write-ahead log after cache eviction."},
	{"bgpc.wal_appends", &WalAppends, "Records durably accepted by the write-ahead log."},
	{"bgpc.wal_append_errors", &WalAppendErrors, "WAL append attempts that failed on IO."},
	{"bgpc.wal_syncs", &WalSyncs, "WAL fsyncs of the active segment: policy batches plus one per sealed segment."},
	{"bgpc.wal_replayed", &WalReplayed, "Records recovered from the WAL during startup replay."},
	{"bgpc.wal_replay_skipped", &WalReplaySkipped, "Records dropped in recovery for a broken fingerprint chain."},
	{"bgpc.wal_truncated", &WalTruncatedRecords, "Torn tail records truncated at the first bad CRC."},
	{"bgpc.wal_quarantined", &WalQuarantinedSegments, "Corrupted WAL segments renamed aside instead of blocking startup."},
	{"bgpc.wal_snapshots", &WalSnapshots, "WAL snapshot compactions."},
	{"bgpc.client_retries", &ClientRetries, "Client attempts beyond the first."},
	{"bgpc.rtr_proxied", &RtrProxied, "Requests the router forwarded to a backend."},
	{"bgpc.rtr_dedup_hits", &RtrDedupHits, "Requests collapsed into an identical in-flight job."},
	{"bgpc.rtr_spillovers", &RtrSpillovers, "Budget-aware reroutes past a 429/413-rejecting owner."},
	{"bgpc.rtr_failovers", &RtrFailovers, "Reroutes past a down or ejected owner to its successor."},
	{"bgpc.rtr_delta_miss_hops", &RtrDeltaMissHops, "Delta hops answered 404 by a backend without the base, walked past."},
	{"bgpc.rtr_ejections", &RtrEjections, "Backend suspect-to-ejected health transitions."},
	{"bgpc.rtr_recoveries", &RtrRecoveries, "Ejected backends that passed recovery probes and rejoined."},
	{"bgpc.diag_bundles", &DiagBundles, "Diagnostic bundles written by the flight recorder."},
	{"bgpc.diag_suppressed", &DiagSuppressed, "Anomaly triggers swallowed by the flight recorder cooldown or an in-progress bundle write."},
	{"bgpc.diag_errors", &DiagErrors, "Diagnostic bundle writes that failed partway."},
}

// ResetMetrics zeroes all counters (tests).
func ResetMetrics() {
	for _, m := range counters {
		m.c.Reset()
	}
}
