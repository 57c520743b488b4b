package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bgpc/internal/obs"
)

// ErrBreakerOpen reports that the circuit breaker refused the call
// without contacting the server. Match with errors.Is; the caller
// should back off for at least the breaker's cooldown.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// BreakerState enumerates the circuit breaker's three states.
type BreakerState int

const (
	// BreakerClosed: traffic flows; outcomes are recorded in the
	// rolling window.
	BreakerClosed BreakerState = iota
	// BreakerOpen: every call is refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: a limited number of probe calls are let through;
	// enough successes close the breaker, any failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig tunes the rolling-window circuit breaker. The zero
// value picks serving-friendly defaults (see the field comments).
type BreakerConfig struct {
	// Window is the rolling window over which failure ratios are
	// computed; ≤ 0 means 10s.
	Window time.Duration
	// Buckets is the window's resolution (outcome counts rotate through
	// this many sub-intervals); < 2 means 10.
	Buckets int
	// MinRequests is the minimum number of outcomes in the window
	// before the breaker may trip — a single early failure must not
	// open it; < 1 means 5.
	MinRequests int
	// FailureRatio is the windowed failure fraction at or above which
	// the breaker opens; ≤ 0 means 0.5.
	FailureRatio float64
	// Cooldown is how long the breaker stays open before allowing
	// half-open probes; ≤ 0 means 2s.
	Cooldown time.Duration
	// HalfOpenProbes is the number of consecutive probe successes that
	// close the breaker again; < 1 means 2.
	HalfOpenProbes int

	// now overrides the clock in tests; nil means time.Now.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Buckets < 2 {
		c.Buckets = 10
	}
	if c.MinRequests < 1 {
		c.MinRequests = 5
	}
	if c.FailureRatio <= 0 {
		c.FailureRatio = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.HalfOpenProbes < 1 {
		c.HalfOpenProbes = 2
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// bucket holds the outcome counts of one window sub-interval.
type bucket struct {
	start    time.Time
	ok, fail int64
}

// breaker is a rolling-window circuit breaker: closed it counts
// successes and failures in a ring of time buckets; too high a failure
// ratio opens it; after a cooldown it goes half-open and lets a few
// probes decide. It protects a flapping daemon from retry storms — the
// client stops hammering a server that is failing everything and gives
// it a cooldown to recover, the pattern production partitioner services
// deploy in front of shared solvers.
type breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	buckets  []bucket
	openedAt time.Time
	// halfOK counts consecutive half-open probe successes; halfInFlight
	// bounds concurrent probes to the budgeted count.
	halfOK       int
	halfInFlight int
}

func newBreaker(cfg BreakerConfig) *breaker {
	cfg = cfg.withDefaults()
	return &breaker{cfg: cfg, buckets: make([]bucket, cfg.Buckets)}
}

// allow reports whether a call may proceed. In the open state it fails
// with ErrBreakerOpen (wrapping the time left until half-open); in
// half-open it admits at most HalfOpenProbes concurrent probes.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.now()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if wait := b.openedAt.Add(b.cfg.Cooldown).Sub(now); wait > 0 {
			return fmt.Errorf("%w: retry in %s", ErrBreakerOpen, wait.Round(time.Millisecond))
		}
		// Cooldown over: go half-open and admit this call as the first
		// probe.
		b.state = BreakerHalfOpen
		b.halfOK = 0
		b.halfInFlight = 1
		return nil
	default: // BreakerHalfOpen
		if b.halfInFlight >= b.cfg.HalfOpenProbes {
			return fmt.Errorf("%w: half-open probe budget in use", ErrBreakerOpen)
		}
		b.halfInFlight++
		return nil
	}
}

// record feeds one call outcome back into the state machine.
func (b *breaker) record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.now()
	switch b.state {
	case BreakerClosed:
		bk := b.currentBucket(now)
		if success {
			bk.ok++
		} else {
			bk.fail++
		}
		ok, fail := b.windowCounts(now)
		total := ok + fail
		if total >= int64(b.cfg.MinRequests) && float64(fail)/float64(total) >= b.cfg.FailureRatio {
			b.open(now)
		}
	case BreakerHalfOpen:
		if b.halfInFlight > 0 {
			b.halfInFlight--
		}
		if !success {
			// Any failed probe re-opens for a full cooldown.
			b.open(now)
			return
		}
		b.halfOK++
		if b.halfOK >= b.cfg.HalfOpenProbes {
			// Recovered: close with a clean window so old failures
			// cannot immediately re-trip it.
			b.state = BreakerClosed
			for i := range b.buckets {
				b.buckets[i] = bucket{}
			}
		}
	case BreakerOpen:
		// A call admitted before the trip finishing late; its outcome
		// no longer matters.
	}
}

// open transitions to the open state (from closed or half-open).
func (b *breaker) open(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.halfOK = 0
	b.halfInFlight = 0
	obs.ClientBreakerOpens.Inc()
}

// currentBucket rotates the ring to now and returns the live bucket.
func (b *breaker) currentBucket(now time.Time) *bucket {
	span := b.cfg.Window / time.Duration(len(b.buckets))
	idx := int((now.UnixNano() / int64(span)) % int64(len(b.buckets)))
	bk := &b.buckets[idx]
	if now.Sub(bk.start) >= span {
		*bk = bucket{start: now.Truncate(span)}
	}
	return bk
}

// windowCounts sums outcomes over buckets still inside the window.
func (b *breaker) windowCounts(now time.Time) (ok, fail int64) {
	for i := range b.buckets {
		bk := &b.buckets[i]
		if !bk.start.IsZero() && now.Sub(bk.start) < b.cfg.Window {
			ok += bk.ok
			fail += bk.fail
		}
	}
	return ok, fail
}

// State reports the breaker's current state.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	// An expired cooldown reads as half-open even before the next
	// allow() performs the transition, so gauges do not report "open"
	// after the breaker would in fact admit a probe.
	if b.state == BreakerOpen && b.cfg.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}
