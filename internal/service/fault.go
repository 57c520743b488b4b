package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"bgpc/internal/obs"
)

// Failpoint names wired through the serving path. They exist so the
// chaos battery (and operators reproducing an incident) can inject
// faults at the exact seams the containment machinery defends:
const (
	// FPBeforeRun fires on a pool worker immediately before a job's
	// run function. "panic" simulates a crashing job (contained by the
	// worker's recover → 500), "delay" a stuck job (exercises drain
	// grace windows), "err"/"cancel" also surface as contained panics.
	FPBeforeRun = "pool.beforeRun"
	// FPCacheGet / FPCachePut fire inside graph-cache lookups and
	// inserts. Injected faults degrade the cache (forced miss /
	// uncached entry) rather than failing the request — the cache is
	// an optimization, never a correctness dependency.
	FPCacheGet = "cache.get"
	FPCachePut = "cache.put"
	// FPHandleColor fires at the top of the POST /color handler, on
	// the request goroutine: "panic" exercises the ServeHTTP recover
	// middleware, "err" returns an injected 500 before any work.
	FPHandleColor = "svc.handleColor"
)

// errLivelock is the cancellation cause the progress watchdog uses, so
// the degradation path can tell a watchdog trip from a client deadline.
var errLivelock = errors.New("service: watchdog: no coloring progress within window")

// quarantine tracks graph fingerprints whose jobs keep panicking and
// refuses them for a cool-down, so one poisoned input cannot grind the
// pool down by re-crashing workers on every retry. Strikes accumulate
// per key; a successful run clears them. A nil *quarantine (the
// disabled configuration) admits everything.
type quarantine struct {
	mu      sync.Mutex
	after   int           // strikes before blocking
	dur     time.Duration // block duration
	strikes map[string]int
	blocked map[string]time.Time // key → blocked-until
}

func newQuarantine(after int, dur time.Duration) *quarantine {
	if after <= 0 {
		return nil
	}
	return &quarantine{
		after:   after,
		dur:     dur,
		strikes: make(map[string]int),
		blocked: make(map[string]time.Time),
	}
}

// check reports whether key is currently quarantined and, if so, how
// long until it is admitted again (always ≥ 1s so a Retry-After header
// rounds to something actionable). Expired blocks are reaped in place.
func (q *quarantine) check(key string) (bool, time.Duration) {
	if q == nil {
		return false, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	until, ok := q.blocked[key]
	if !ok {
		return false, 0
	}
	left := time.Until(until)
	if left <= 0 {
		// Cool-down over: admit, but keep one residual strike so an
		// immediately re-panicking input is re-blocked after
		// (after-1) more failures instead of a full fresh count.
		delete(q.blocked, key)
		q.strikes[key] = 1
		return false, 0
	}
	if left < time.Second {
		left = time.Second
	}
	return true, left
}

// strike records a worker panic for key and reports whether that
// pushed it into quarantine.
func (q *quarantine) strike(key string) bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.strikes[key]++
	if q.strikes[key] < q.after {
		return false
	}
	delete(q.strikes, key)
	q.blocked[key] = time.Now().Add(q.dur)
	return true
}

// clear forgets key's strikes after a fully successful run.
func (q *quarantine) clear(key string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	delete(q.strikes, key)
	q.mu.Unlock()
}

// watchJob cancels the job (cause errLivelock) when rec's progress
// heartbeat (obs.Recorder.Progress: a conflict phase lowered the
// conflict count) does not move within window. The heartbeat starts at
// the call, so time spent before it never counts. The returned stop
// function must be called when the run finishes; it releases the
// monitor goroutine.
func watchJob(ctx context.Context, cancel context.CancelCauseFunc, rec *obs.Recorder, window time.Duration) (stop func()) {
	armed := time.Now()
	done := make(chan struct{})
	tick := window / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				beat := rec.Progress()
				if beat.Before(armed) {
					beat = armed
				}
				if time.Since(beat) > window {
					obs.SvcWatchdogFired.Inc()
					cancel(errLivelock)
					return
				}
			}
		}
	}()
	return func() { close(done) }
}
