package service

import (
	"errors"
	"strconv"
	"time"

	"bgpc/internal/delta"
	"bgpc/internal/obs"
	"bgpc/internal/trace"
	"bgpc/internal/wal"
)

// Durability wiring: when Config.WAL is set, every verified coloring
// the daemon acknowledges is appended to the write-ahead log before the
// 200 goes out, and a delta addressed at a fingerprint the cache has
// evicted (or lost to a restart) is rehydrated from the log instead of
// 404ing. The log is advisory for serving — an append failure trips
// the log's one-way degraded fuse and the daemon keeps answering from
// memory, advertising the loss in the X-BGPC-Durability header and the
// svc_wal_degraded gauge, never as a 5xx.

// durability reports the durability level the next response can
// honestly promise: "wal" while the log accepts appends, "none" when
// no log is configured or the fuse has tripped.
func (s *Server) durability() string {
	if s.cfg.WAL != nil && !s.cfg.WAL.Degraded() {
		return "wal"
	}
	return "none"
}

// walAppend logs one verified coloring of entry before its 200: a
// full coloring when d is nil, else the delta d applied to the graph
// fingerprinted baseFPU (base fingerprint plus edge lists — the graph
// is reconstructible by chain replay). Already-logged (fingerprint,
// mode) pairs are skipped — any verified coloring for a pair is
// interchangeable warm-start material, and re-coloring a hot cached
// graph must not grow the log.
func (s *Server) walAppend(rec *obs.Recorder, entry *cacheEntry, mode string, colors []int32, baseFPU uint64, d *delta.Delta) {
	if s.cfg.WAL == nil || s.cfg.WAL.HasColoring(entry.fpU, mode) {
		return
	}
	t0, syncs0 := time.Now(), obs.WalSyncs.Load()
	var err error
	if d == nil {
		err = s.cfg.WAL.AppendFull(entry.fpU, mode, entry.g, colors)
	} else {
		err = s.cfg.WAL.AppendDelta(baseFPU, entry.fpU, mode, d.Insert, d.Remove, colors)
	}
	s.walSpan(rec, t0, syncs0, err)
	if err != nil {
		s.walDegraded(err)
	}
}

// walSpan records the durability hop on the request timeline: how long
// the append held the 200 back, whether a sync batch happened to land
// inside it (best-effort — the sync loop is global, so the attribute
// means "a batch completed while this append was in flight"), and the
// failure that tripped the fuse, if any.
func (s *Server) walSpan(rec *obs.Recorder, start time.Time, syncs0 int64, err error) {
	if rec == nil {
		return
	}
	attrs := map[string]string{"synced": strconv.FormatBool(obs.WalSyncs.Load() > syncs0)}
	if err != nil {
		attrs["error"] = err.Error()
	}
	rec.AddSpanFull("", "wal.append", trace.KindWAL, start, time.Since(start), attrs)
}

// walDegraded reports the fuse trip once per Server: the fuse is
// one-way, so one log line and one bundle tell the whole story.
func (s *Server) walDegraded(err error) {
	s.walWarn.Do(func() {
		s.logf("service: WAL degraded to in-memory-only mode: %v", err)
		if s.cfg.Diag != nil {
			s.cfg.Diag.TriggerAsync("wal_fuse", err.Error(), nil, s.traces.List())
		}
	})
}

// rehydrate pulls (fp, mode) out of the WAL, re-verifies the recovered
// coloring against the rebuilt graph, and publishes it into the cache.
// The bool result distinguishes a true miss (the log has no such
// state; the client should unlearn the fingerprint and re-color) from
// a transient failure (the log claims the state but could not produce
// a verified coloring here; the fingerprint stays learnable). Returns
// entry == nil on any miss.
func (s *Server) rehydrate(fpHex, mode string) (entry *cacheEntry, recoverable bool) {
	if s.cfg.WAL == nil {
		return nil, false
	}
	fpU, err := strconv.ParseUint(fpHex, 16, 64)
	if err != nil {
		return nil, false
	}
	g, colors, err := s.cfg.WAL.Rehydrate(fpU, mode)
	if err != nil {
		// ErrUnknown is a definitive miss. Anything else — IO trouble,
		// a broken chain behind a quarantined segment — is state the log
		// acknowledged; tell the client it may survive a retry so a
		// recovery race does not unlearn a durable fingerprint.
		return nil, !errors.Is(err, wal.ErrUnknown)
	}
	e := newCacheEntry("", g)
	// Never let unverified recovered state into the cache: the log's
	// CRCs and fingerprint checks prove integrity, only the verifier
	// proves validity.
	if e.verify(mode == "d2", colors) != nil {
		return nil, false
	}
	pub := s.cache.putEntry(e)
	pub.storeColoring(mode, colors)
	obs.SvcWalRehydrated.Inc()
	return pub, true
}

// warmFromWAL pre-populates the cache from the recovered log at boot:
// the most recently touched fingerprints, up to cache capacity, each
// re-verified before it re-enters serving. Colder log state stays
// index-only and rehydrates on demand. Returns how many (fingerprint,
// mode) colorings went live.
func (s *Server) warmFromWAL() int {
	if s.cfg.WAL == nil || s.cache == nil {
		return 0
	}
	warmed := 0
	for _, fpU := range s.cfg.WAL.RecentFingerprints(s.cfg.CacheEntries) {
		fpHex := strconv.FormatUint(fpU, 16)
		for len(fpHex) < 16 {
			fpHex = "0" + fpHex
		}
		for _, mode := range s.cfg.WAL.Modes(fpU) {
			if e, _ := s.rehydrate(fpHex, mode); e != nil {
				warmed++
			}
		}
	}
	return warmed
}

// WarmedColorings reports how many (fingerprint, mode) colorings the
// boot-time WAL warm-up re-verified into the cache (the daemon's
// recovery report).
func (s *Server) WarmedColorings() int { return s.warmed }
