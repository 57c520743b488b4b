// Package trace is the fleet's distributed-tracing layer: W3C
// trace-context propagation between the router and the backend
// daemons, typed spans layered on the obs.Recorder timeline model,
// per-process retention of completed requests (Ring), router-side trace
// assembly (Assembled), and the anomaly-triggered flight recorder
// (Flight).
//
// The design goal is end-to-end attribution at fleet scale with a
// hot path that stays untouched: sampling decisions are per-request
// (never per-vertex), span identity for in-process spans is derived at
// export time rather than minted at record time, and every handle is
// nil-safe so unsampled requests pay a pointer test — the same
// contract obs pins with its zero-alloc test.
//
// Wire format: the standard `traceparent` header,
//
//	00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// The router does NOT forward an inbound traceparent verbatim: it
// mints a fresh child span-id per backend hop and sends that as the
// parent-id, so a backend's root span parents to the specific hop
// (owner attempt, failover, spillover) that reached it, not to the
// original caller. That is what makes a rerouted request's assembled
// tree show which attempt actually served it.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"strings"

	"bgpc/internal/obs"
)

// Span kinds. A kind classifies what a span measures so tools filter
// structurally ("all failover hops", "all WAL appends") without
// parsing span names.
const (
	// KindServer marks a process's root request span — one per
	// fragment, the span every other span in the fragment descends
	// from.
	KindServer = "server"
	// KindPick is the router's candidate-selection span (ring walk).
	KindPick = "pick"
	// KindProxy is a backend round trip that produced the final
	// response.
	KindProxy = "proxy"
	// KindFailover is a backend round trip that failed (transport
	// error or 5xx) and pushed the request to the ring successor.
	KindFailover = "failover"
	// KindSpillover is a backend round trip answered 429/413 — alive
	// but out of budget, job spilled onward.
	KindSpillover = "spillover"
	// KindDeltaMiss is a delta's backend round trip answered 404 —
	// alive, but not holding the base; the router walked on to the
	// ring successor.
	KindDeltaMiss = "delta-miss"
	// KindDedup marks a singleflight follower: the request did not run
	// anywhere, its result was fanned out from the leader's flight.
	// The span's attrs carry the leader's trace and hop span ids.
	KindDedup = "dedup-follow"
	// Backend phase kinds, mirroring the Recorder span names the
	// service has recorded since the telemetry PR.
	KindQueue   = "queue"
	KindDecode  = "decode"
	KindBuild   = "build"
	KindColor   = "color"
	KindRepair  = "repair"
	KindVerify  = "verify"
	KindApply   = "apply"
	KindRecolor = "recolor"
	// KindWAL covers durability spans (wal.append / wal.sync).
	KindWAL = "wal"
)

// SpanContext is one process's view of its position in a distributed
// trace: the shared trace id, this process's root span id, the remote
// parent that reached it (if any), and the propagated head-sampling
// decision.
type SpanContext struct {
	TraceID  string // 32 lowercase hex, non-zero
	SpanID   string // 16 lowercase hex — this process's root span
	ParentID string // remote parent span id; "" at the trace root
	Sampled  bool   // head-sampling decision, propagated in the flags byte
}

// Traceparent renders the W3C header value for a child call: the
// receiver becomes the callee's remote parent.
func Traceparent(traceID, spanID string, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	var b strings.Builder
	b.Grow(3 + 33 + 17 + 2)
	b.WriteString("00-")
	b.WriteString(traceID)
	b.WriteByte('-')
	b.WriteString(spanID)
	b.WriteByte('-')
	b.WriteString(flags)
	return b.String()
}

// Extract resolves a request's SpanContext at ingress. A valid inbound
// traceparent is adopted — trace id and sampled flag are the caller's
// decision, and a fresh root span id is minted for this process. With
// no (valid) traceparent, a new trace starts: fallbackTraceID is used
// when it already has trace-id shape (the request-id layer mints ids
// in exactly that shape, so request id == trace id for minted ids),
// and the head sampler decides.
func Extract(traceparent, fallbackTraceID string, s Sampler) SpanContext {
	if tid, pid, sampled, ok := obs.ParseTraceparent(traceparent); ok {
		return SpanContext{TraceID: tid, SpanID: NewSpanID(), ParentID: pid, Sampled: sampled}
	}
	tid := fallbackTraceID
	if !ValidTraceID(tid) {
		tid = newTraceID()
	}
	return SpanContext{TraceID: tid, SpanID: NewSpanID(), Sampled: s.Head(tid)}
}

// ValidTraceID reports whether s is a well-formed, non-zero W3C
// trace id (32 lowercase hex digits).
func ValidTraceID(s string) bool {
	return len(s) == 32 && isLowerHex(s) && !allZero(s)
}

// ValidSpanID reports whether s is a well-formed, non-zero W3C
// span id (16 lowercase hex digits).
func ValidSpanID(s string) bool {
	return len(s) == 16 && isLowerHex(s) && !allZero(s)
}

// NewSpanID mints a 16-hex random span id.
func NewSpanID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Mirror obs.NewRequestID's stance: a broken platform RNG keeps
		// requests serviceable with a fixed (valid, non-zero) id.
		return "0000000000000001"
	}
	s := hex.EncodeToString(b[:])
	if allZero(s) {
		return "0000000000000001"
	}
	return s
}

func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000000000000000000000000001"
	}
	s := hex.EncodeToString(b[:])
	if allZero(s) {
		return "00000000000000000000000000000001"
	}
	return s
}

// DeriveSpanID deterministically derives a 16-hex span id for the
// idx-th in-process span of the fragment rooted at root. Derivation
// (instead of minting at record time) is what keeps span recording off
// the allocation ledger: ids exist only once a fragment is exported.
func DeriveSpanID(root string, idx int, name string) string {
	h := fnv1a(root)
	h = fnv1aByte(h, byte(idx), byte(idx>>8), byte(idx>>16), byte(idx>>24))
	h = fnv1aString(h, name)
	if h == 0 {
		h = 1
	}
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(h)
		h >>= 8
	}
	return hex.EncodeToString(b[:])
}

// Sampler holds the trace-retention policy: a head ratio decided
// deterministically from the trace id (so every process in the fleet
// agrees without coordination) plus tail-based keeps that retain
// anomalous traces even when unsampled. The zero value samples
// nothing and keeps nothing; NewRing applies the serving defaults.
type Sampler struct {
	// HeadRatio is the fraction of new trace ids sampled at ingress;
	// ≥ 1 samples everything, ≤ 0 nothing.
	HeadRatio float64
	// KeepErrors tail-keeps any trace that finished with a 5xx status.
	KeepErrors bool
	// SlowNS, when positive, tail-keeps any trace at least this slow.
	SlowNS int64
}

// Head is the head-sampling decision for a freshly minted trace id.
// It hashes the id into [0,1) so the decision is uniform, stateless,
// and identical on every process that computes it.
func (s Sampler) Head(traceID string) bool {
	if s.HeadRatio >= 1 {
		return true
	}
	if s.HeadRatio <= 0 {
		return false
	}
	h := fnv1a(traceID)
	return float64(h>>11)/float64(1<<53) < s.HeadRatio
}

// Keep is the export decision for a completed request: head-sampled
// traces are always kept; unsampled ones are kept only when a tail
// condition (error status, slow request) fires. Pure arithmetic — it
// allocates nothing, so the unsampled fast path discards for free.
func (s Sampler) Keep(sampled bool, status int, durNS int64) bool {
	if sampled {
		return true
	}
	if s.KeepErrors && status >= 500 {
		return true
	}
	return s.SlowNS > 0 && durNS >= s.SlowNS
}

// fnv1a is 64-bit FNV-1a over a string, hand-rolled so hashing a
// trace id never allocates (hash/fnv would box through io.Writer).
func fnv1a(s string) uint64 { return fnv1aString(14695981039346656037, s) }

func fnv1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func fnv1aByte(h uint64, bs ...byte) uint64 {
	for _, b := range bs {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
