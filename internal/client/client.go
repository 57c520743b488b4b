// Package client is the disciplined way to call a bgpcd coloring
// daemon: an HTTP client with capped exponential backoff and full
// jitter, Retry-After honoring, and per-attempt deadline propagation.
// The daemon's admission control (queue-full and byte-budget 429s,
// drain 503s) only protects the server if clients back off instead of
// hammering; this package is that other half of the contract. Bounded
// retries are the client's one failure policy: a failing server sees at
// most MaxAttempts tries per call, spread out by jitter, and load is
// shed where it can be seen — daemon admission control, per-fingerprint
// quarantine, and router ejection — not by a second verdict here.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
	"bgpc/internal/service"
)

// FPAttempt is probed immediately before every HTTP attempt. "err"
// makes attempts fail without touching the network — transport faults
// for chaos schedules — and "delay" turns the client into a straggler.
const FPAttempt = "client.attempt"

// RouteInfo describes how a response travelled when the daemon sits
// behind a bgpcrouter fleet front: which backend actually served the
// job and whether the router rerouted it off its ring owner. All
// fields are zero against a bare daemon — the headers simply aren't
// there — so callers can use the routed variants unconditionally.
type RouteInfo struct {
	// Backend is the serving backend's address (X-BGPC-Backend), ""
	// when the response did not pass through a router.
	Backend string
	// Spilled reports budget-aware spillover: the ring owner answered
	// 429/413 and the job ran on a successor (X-BGPC-Spilled).
	Spilled bool
	// Rerouted reports failover: the ring owner was down or ejected and
	// the job ran on a successor (X-BGPC-Rerouted).
	Rerouted bool
	// Deduped reports the response was fanned out from an identical
	// concurrent job's single execution (X-BGPC-Deduped).
	Deduped bool
	// TraceID is the distributed-trace id the serving side ran the
	// request under (X-BGPC-Trace) — the key into the daemon's
	// /debug/trace/{traceid} and the router's /rtr/trace/{traceid}.
	// Empty when the server has tracing disabled.
	TraceID string
	// RequestID is the correlation id the serving side echoed
	// (X-Request-ID) — the key into /debug/requests/{id}.
	RequestID string
}

// routeInfoFromHeaders extracts the router's hop markers; absent
// headers leave the zero value (direct-to-daemon responses).
func routeInfoFromHeaders(h http.Header) RouteInfo {
	return RouteInfo{
		Backend:   h.Get("X-BGPC-Backend"),
		Spilled:   h.Get("X-BGPC-Spilled") != "",
		Rerouted:  h.Get("X-BGPC-Rerouted") != "",
		Deduped:   h.Get("X-BGPC-Deduped") != "",
		TraceID:   h.Get("X-BGPC-Trace"),
		RequestID: h.Get("X-Request-ID"),
	}
}

// APIError is a non-200 response from the daemon, carrying everything
// the retry loop needs: the status, the server's message, and — for
// 429s — the queue depth and Retry-After the server chose.
type APIError struct {
	Status     int
	Message    string
	QueueDepth int
	RetryAfter time.Duration
	// Route carries the router hop markers of the failing response
	// (zero against a bare daemon), so a fleet client can attribute
	// rejections to the backend that issued them.
	Route RouteInfo
	// RequestID is the failing request's correlation id, from the error
	// body or the X-Request-ID response header — quote it to resolve
	// the failure in the daemon's access log and /debug/requests/{id}.
	RequestID string
	// Recoverable mirrors the server's recoverable hint on delta-path
	// 404/409s: the daemon's write-ahead log acknowledged the
	// fingerprint but could not rehydrate it for this request (recovery
	// race, transient IO trouble). The fingerprint is still durable —
	// retry instead of unlearning it and falling back to a full color.
	Recoverable bool
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("client: server returned %d: %s (request id %s)", e.Status, e.Message, e.RequestID)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Temporary reports whether retrying the same request can succeed:
// backpressure (429), drain (503), and server faults (5xx) are
// temporary; 400/413-class rejections are permanent. A recoverable
// delta miss (404/409 with the server's recoverable hint) is also
// temporary: the state is durable in the daemon's write-ahead log and
// a retry rides out the recovery race.
func (e *APIError) Temporary() bool {
	if e.Recoverable && (e.Status == http.StatusNotFound || e.Status == http.StatusConflict) {
		return true
	}
	return e.Status == http.StatusTooManyRequests ||
		e.Status == http.StatusServiceUnavailable ||
		e.Status >= 500
}

// Config tunes a Client. Only BaseURL is required; the zero value of
// every other field picks serving-friendly defaults.
type Config struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8972".
	BaseURL string
	// HTTPClient overrides the transport; nil means a dedicated
	// http.Client with no global timeout (deadlines are per-attempt).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call (first attempt included);
	// < 1 means 4.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff schedule; ≤ 0 means
	// 100ms. Retry n sleeps a uniformly random duration in
	// (0, min(MaxBackoff, BaseBackoff·2ⁿ)] — "full jitter", which
	// decorrelates a fleet of retrying clients instead of marching them
	// into the server in waves.
	BaseBackoff time.Duration
	// MaxBackoff caps any single sleep; ≤ 0 means 5s.
	MaxBackoff time.Duration
	// AttemptTimeout is the per-attempt deadline, layered under the
	// caller's context so one black-holed attempt cannot consume the
	// whole call budget; ≤ 0 means 30s.
	AttemptTimeout time.Duration
	// Logf, when set, receives one line per retryable attempt failure.
	// Nil discards.
	Logf func(format string, args ...any)

	// rand overrides the jitter source in tests; nil seeds from the
	// clock.
	rand *rand.Rand
}

// Client calls a bgpcd daemon with bounded retries. Safe for
// concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a ready Client for the daemon at cfg.BaseURL.
func New(cfg Config) *Client {
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 30 * time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	rng := cfg.rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return &Client{cfg: cfg, http: hc, rng: rng}
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Color submits one coloring job and returns the decoded response,
// retrying temporary failures with backoff until ctx expires or the
// attempt budget runs out. Permanent rejections (400, 413) return an
// *APIError immediately.
//
// One request id is minted per Color call and sent as X-Request-ID on
// every attempt, so all retries of one logical request correlate to a
// single id in the daemon's access log and timelines.
func (c *Client) Color(ctx context.Context, req service.ColorRequest) (*service.ColorResponse, error) {
	resp, _, err := c.ColorRouted(ctx, req)
	return resp, err
}

// ColorRouted is Color plus the router hop markers of the response —
// which backend served it, whether it was spilled, rerouted, or
// deduped. Against a bare daemon the RouteInfo is the zero value.
func (c *Client) ColorRouted(ctx context.Context, req service.ColorRequest) (*service.ColorResponse, RouteInfo, error) {
	raw, ri, err := c.call(ctx, "/color", req)
	if err != nil {
		return nil, ri, err
	}
	var resp service.ColorResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, ri, fmt.Errorf("client: decoding response: %w", err)
	}
	return &resp, ri, nil
}

// Delta submits one incremental recoloring against a fingerprint a
// prior Color (or Delta) returned, with the same retry discipline as
// Color. A 404 — the daemon no longer caches that fingerprint — is
// permanent for this call and surfaces as an *APIError with Status 404;
// the caller's correct move is a fresh Color and a retry of the delta
// chain from the fingerprint it returns.
func (c *Client) Delta(ctx context.Context, fingerprint string, req service.DeltaRequest) (*service.DeltaResponse, error) {
	resp, _, err := c.DeltaRouted(ctx, fingerprint, req)
	return resp, err
}

// DeltaRouted is Delta plus the response's router hop markers.
func (c *Client) DeltaRouted(ctx context.Context, fingerprint string, req service.DeltaRequest) (*service.DeltaResponse, RouteInfo, error) {
	raw, ri, err := c.call(ctx, "/color/"+fingerprint+"/delta", req)
	if err != nil {
		return nil, ri, err
	}
	var resp service.DeltaResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, ri, fmt.Errorf("client: decoding response: %w", err)
	}
	return &resp, ri, nil
}

// call runs the shared retry loop for one logical request: encode once,
// mint one correlation id, then attempt with backoff until success, a
// permanent rejection, context exhaustion, or the attempt budget runs
// out. Returns the raw 200 body plus the final attempt's route markers.
func (c *Client) call(ctx context.Context, path string, req any) ([]byte, RouteInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, RouteInfo{}, fmt.Errorf("client: encoding request: %w", err)
	}
	reqID := obs.NewRequestID()
	var lastErr error
	var lastRoute RouteInfo
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			obs.ClientRetries.Inc()
			if err := c.sleep(ctx, c.backoff(attempt, lastErr)); err != nil {
				return nil, lastRoute, fmt.Errorf("client: %w (last attempt: %v)", err, lastErr)
			}
		}
		raw, ri, err := c.attempt(ctx, path, body, reqID)
		lastRoute = ri
		if err == nil {
			return raw, ri, nil
		}
		lastErr = err
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			return nil, ri, err
		}
		if ctx.Err() != nil {
			return nil, lastRoute, fmt.Errorf("client: %w (last attempt: %v)", ctx.Err(), lastErr)
		}
		c.logf("client: attempt %d/%d failed: %v", attempt+1, c.cfg.MaxAttempts, err)
	}
	return nil, lastRoute, fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// attempt performs one POST under its own deadline, carrying the call's
// correlation id, and returns the raw 200 body and route markers.
func (c *Client) attempt(ctx context.Context, path string, body []byte, reqID string) ([]byte, RouteInfo, error) {
	if err := failpoint.Inject(FPAttempt); err != nil {
		return nil, RouteInfo{}, fmt.Errorf("client: %w", err)
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, RouteInfo{}, fmt.Errorf("client: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-ID", reqID)
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return nil, RouteInfo{}, fmt.Errorf("client: %w", err)
	}
	defer hresp.Body.Close()
	ri := routeInfoFromHeaders(hresp.Header)
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 256<<20))
	if err != nil {
		return nil, ri, fmt.Errorf("client: reading response: %w", err)
	}
	if hresp.StatusCode != http.StatusOK {
		apiErr := &APIError{
			Status:     hresp.StatusCode,
			RetryAfter: parseRetryAfter(hresp.Header.Get("Retry-After")),
			RequestID:  hresp.Header.Get("X-Request-ID"),
			Route:      ri,
		}
		var e service.ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
			apiErr.QueueDepth = e.QueueDepth
			apiErr.Recoverable = e.Recoverable
			if e.RequestID != "" {
				apiErr.RequestID = e.RequestID
			}
		} else {
			apiErr.Message = string(raw)
		}
		return nil, ri, apiErr
	}
	return raw, ri, nil
}

// Healthz checks the daemon's liveness endpoint once (no retries).
func (c *Client) Healthz(ctx context.Context) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodGet, c.cfg.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return &APIError{Status: hresp.StatusCode, Message: "healthz failed"}
	}
	return nil
}

// backoff computes the sleep before retry `attempt` (1-based): full
// jitter under an exponentially growing cap, raised to the server's
// Retry-After when the last rejection carried a larger one.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	cap := c.cfg.BaseBackoff << uint(attempt-1)
	if cap > c.cfg.MaxBackoff || cap <= 0 {
		cap = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(cap))) + 1
	c.mu.Unlock()
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	return d
}

// sleep waits for d or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter handles both RFC 9110 forms of the header: a delay in
// seconds and an HTTP-date. Unparseable or absent values are 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
