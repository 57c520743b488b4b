package router

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
	"bgpc/internal/trace"
)

// FPProbe sits in the active health prober, before the /healthz
// request is issued. Arming it with err makes every probe fail without
// touching the network — the lever chaos tests use to eject a backend
// on demand.
const FPProbe = "router.probe"

// BackendState is a backend's position in the health state machine.
//
//	Healthy → Suspect:  FailAfter consecutive passive failures
//	Suspect → Healthy:  one successful probe (or passive success)
//	Suspect → Ejected:  a failed active probe confirms the suspicion
//	Ejected → Probing:  first successful probe after ejection
//	Probing → Healthy:  RecoverProbes consecutive probe successes
//	Probing → Ejected:  any probe failure during recovery
//
// Healthy and Suspect backends receive traffic; Ejected and Probing
// ones do not — a backend must re-prove itself before jobs return.
type BackendState int32

const (
	StateHealthy BackendState = iota
	StateSuspect
	StateEjected
	StateProbing
)

func (s BackendState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateEjected:
		return "ejected"
	case StateProbing:
		return "probing"
	default:
		return fmt.Sprintf("BackendState(%d)", int32(s))
	}
}

// HealthConfig tunes the per-backend health machinery. The zero value
// picks serving defaults (see field comments).
type HealthConfig struct {
	// FailAfter is the consecutive passive-failure count that turns a
	// healthy backend suspect; < 1 means 3.
	FailAfter int
	// ProbeInterval is the active /healthz probe period; ≤ 0 means
	// 500ms. Suspect/ejected backends are probed on this cadence.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request; ≤ 0 derives it from
	// ProbeInterval with a 1s floor — a sub-second interval buys fast
	// detection cadence, but a probe deadline that tight would misread
	// scheduling delay on a loaded backend as death.
	ProbeTimeout time.Duration
	// RecoverProbes is the consecutive probe successes an ejected
	// backend needs to rejoin; < 1 means 2.
	RecoverProbes int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.FailAfter < 1 {
		c.FailAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout < time.Second {
			c.ProbeTimeout = time.Second
		}
	}
	if c.RecoverProbes < 1 {
		c.RecoverProbes = 2
	}
	return c
}

// backend is one fleet member: its address and its health state. All
// state transitions happen under mu so the passive path (proxy
// outcomes) and the active path (prober goroutine) cannot interleave a
// transition.
type backend struct {
	name string // address, e.g. "127.0.0.1:8731"
	base string // "http://" + name

	mu          sync.Mutex
	state       BackendState
	consecFails int // passive failures since last success (Healthy only)
	probeOK     int // consecutive probe successes (Probing only)

	// nudge wakes the prober early (capacity 1); a backend turning
	// suspect requests an immediate probe rather than waiting out the
	// interval.
	nudge chan struct{}
}

func newBackend(name string) *backend {
	return &backend{
		name:  name,
		base:  "http://" + name,
		nudge: make(chan struct{}, 1),
	}
}

// State reports the backend's current health state.
func (b *backend) State() BackendState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// eligible reports whether the backend may receive traffic: its health
// state is healthy or suspect. It is the one eligibility predicate of
// the router: proxy, /healthz and the eligible-backends gauge all ask
// it.
func (b *backend) eligible() bool {
	s := b.State()
	return s == StateHealthy || s == StateSuspect
}

// reportSuccess feeds a passive success (the backend answered, even if
// with a rejection like 429) into the state machine.
func (b *backend) reportSuccess() {
	b.mu.Lock()
	b.consecFails = 0
	if b.state == StateSuspect {
		b.state = StateHealthy
	}
	b.mu.Unlock()
}

// reportFailure feeds a passive failure (transport error or 5xx) in.
// FailAfter consecutive failures turn a healthy backend suspect and
// nudge the prober so the active check runs immediately.
func (b *backend) reportFailure(cfg HealthConfig) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateHealthy {
		return
	}
	b.consecFails++
	if b.consecFails >= cfg.FailAfter {
		b.state = StateSuspect
		b.consecFails = 0
		select {
		case b.nudge <- struct{}{}:
		default:
		}
	}
}

// reportProbe feeds one active probe outcome into the state machine
// and reports whether it ejected the backend: Suspect → Ejected, the
// one transition that takes a backend out of traffic. A relapse during
// recovery (Probing → Ejected) is not a new ejection.
func (b *backend) reportProbe(ok bool, cfg HealthConfig) (ejected bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateHealthy:
		if !ok {
			// A failed probe against a passively-fine backend is only a
			// suspicion; the next probe decides.
			b.state = StateSuspect
		}
	case StateSuspect:
		if ok {
			b.state = StateHealthy
			b.consecFails = 0
		} else {
			b.state = StateEjected
			obs.RtrEjections.Inc()
			return true
		}
	case StateEjected:
		if ok {
			b.state = StateProbing
			b.probeOK = 1
			if b.probeOK >= cfg.RecoverProbes {
				b.recoverLocked()
			}
		}
	case StateProbing:
		if !ok {
			b.state = StateEjected
			b.probeOK = 0
			return false
		}
		b.probeOK++
		if b.probeOK >= cfg.RecoverProbes {
			b.recoverLocked()
		}
	}
	return false
}

// recoverLocked finishes Probing → Healthy. Caller holds b.mu.
func (b *backend) recoverLocked() {
	b.state = StateHealthy
	b.probeOK = 0
	b.consecFails = 0
	obs.RtrRecoveries.Inc()
}

// prober runs the active health loop for one backend until ctx ends:
// GET /healthz every ProbeInterval (sooner when nudged), outcome fed
// to reportProbe. It probes unconditionally — healthy backends get a
// cheap liveness check, ejected ones get their way back in. A probe
// cut short by ctx says nothing of the backend and is dropped. An
// ejection writes one "backend_ejected" bundle to diag (nil: none),
// carrying the request timelines retained in traces (nil: none) — the
// traffic that led up to the ejection; this goroutine is off every
// request path, so the synchronous Trigger is safe, and Close waits
// for it.
func (b *backend) prober(ctx context.Context, hc *http.Client, cfg HealthConfig, diag *trace.Flight, traces *trace.Ring) {
	t := time.NewTicker(cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-b.nudge:
		}
		ok := b.probeOnce(ctx, hc, cfg)
		if ctx.Err() != nil {
			return
		}
		if b.reportProbe(ok, cfg) {
			diag.Trigger("backend_ejected", "backend "+b.name+" ejected", nil, traces.List())
		}
	}
}

// probeOnce performs one /healthz round trip.
func (b *backend) probeOnce(ctx context.Context, hc *http.Client, cfg HealthConfig) bool {
	if err := failpoint.Inject(FPProbe); err != nil {
		return false
	}
	pctx, cancel := context.WithTimeout(ctx, cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
