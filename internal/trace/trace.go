// Package trace is the fleet's distributed-tracing layer: W3C
// trace-context propagation between the router and the backend
// daemons, typed spans layered on the obs.Recorder timeline model,
// per-process retention of completed requests (Ring), router-side trace
// assembly (Assembled), and the anomaly-triggered flight recorder
// (Flight).
//
// Every request is traced and kept: each process files every
// completed request in its bounded Ring, and every filed request can
// be exported, so there is one trace policy and no sampling decision.
// The hot path stays untouched: span identity for in-process spans is
// derived at export time rather than minted at record time, and
// fragments are built only when a trace is read.
//
// Wire format: the standard `traceparent` header, parsed here and
// nowhere else,
//
//	00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// Outbound headers always carry flags 01; inbound flags are validated
// and ignored. Extract resolves a request's id and trace context from
// one parse at ingress.
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
// trace: the shared trace id, this process's root span id, and the
// remote parent that reached it (if any).
type SpanContext struct {
	TraceID  string // 32 lowercase hex, non-zero
	SpanID   string // 16 lowercase hex — this process's root span
	ParentID string // remote parent span id; "" at the trace root
}

// Traceparent renders the W3C header value for a child call: the
// receiver becomes the callee's remote parent. Every request is traced
// and kept, so the flags byte is always 01 (sampled).
func Traceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// Extract resolves one inbound request's identity at ingress from a
// single parse of its headers. A valid traceparent wins: its trace id
// is both the request id and the trace id, its parent id becomes this
// process's remote parent. Otherwise a sane X-Request-ID is adopted as
// the request id, or one is minted; the trace id is the request id
// when it has trace-id shape (minted ids always do, so request id ==
// trace id for them), else a fresh one. Either way a fresh root span
// id is minted for this process. adopted reports whether the request
// id came from the client.
func Extract(traceparent, xRequestID string) (sc SpanContext, id string, adopted bool) {
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		return SpanContext{TraceID: tid, SpanID: NewSpanID(), ParentID: pid}, tid, true
	}
	id, adopted = SanitizeRequestID(xRequestID)
	if !adopted {
		id = obs.NewRequestID()
	}
	tid := id
	if !ValidTraceID(tid) {
		tid = obs.NewRequestID()
	}
	return SpanContext{TraceID: tid, SpanID: NewSpanID()}, id, adopted
}

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-parentid-flags, e.g.
// "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01") into its
// lowercased trace and parent ids; surrounding space is trimmed. ok is
// false for malformed values, version ff, the all-zero trace or parent
// id, and a version-00 header with anything after the flags. Higher
// versions may append "-"-separated fields, which are ignored. The
// flags byte must be two hex digits and is otherwise ignored: every
// request is kept.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	const n = 2 + 1 + 32 + 1 + 16 + 1 + 2
	h = strings.TrimSpace(h)
	if len(h) < n || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	ver, tid, pid, flags := h[:2], h[3:35], h[36:52], h[53:55]
	if len(h) > n && (ver == "00" || h[n] != '-') {
		return "", "", false
	}
	if !isHex(ver) || strings.EqualFold(ver, "ff") || !isHex(flags) ||
		!isHex(tid) || allZero(tid) || !isHex(pid) || allZero(pid) {
		return "", "", false
	}
	return strings.ToLower(tid), strings.ToLower(pid), true
}

// maxRequestIDLen bounds adopted X-Request-ID values so a hostile
// client cannot make a process log and retain megabyte "ids".
const maxRequestIDLen = 128

// SanitizeRequestID validates a client-supplied X-Request-ID: printable
// ASCII without spaces, quotes or backslashes (it is echoed into JSON
// bodies, headers and log lines), at most 128 bytes. Returns ok=false
// when the value must not be adopted.
func SanitizeRequestID(id string) (string, bool) {
	if id == "" || len(id) > maxRequestIDLen {
		return "", false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return "", false
		}
	}
	return id, true
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

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
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
