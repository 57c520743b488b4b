package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// Request-id minting and adoption. Every request through the daemon
// carries exactly one correlation id for its whole life: minted at
// ingress when the client sent none, or adopted from a W3C
// `traceparent` trace-id or an `X-Request-ID` header so an upstream
// system's id resolves in the daemon's timelines and access logs. The
// client (internal/client) sends the same id on every retry of one
// logical call, which is what makes a retried attempt correlatable
// server-side.

// NewRequestID mints a 32-hex-character random id — the same shape as
// a W3C trace-id, so a minted id can be forwarded as one.
func NewRequestID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; a fixed id
		// keeps requests serviceable, just not correlatable.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-parentid-flags, e.g.
// "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01") into its
// lowercased trace and parent ids and the sampled flag. ok is false for
// malformed values, version ff, and the all-zero trace or parent id.
func ParseTraceparent(h string) (traceID, parentID string, sampled, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return "", "", false, false
	}
	ver, tid, pid, flags := parts[0], strings.ToLower(parts[1]), strings.ToLower(parts[2]), parts[3]
	if len(ver) != 2 || !isHex(ver) || ver == "ff" || len(flags) != 2 || !isHex(flags) ||
		len(tid) != 32 || !isHex(tid) || strings.Trim(tid, "0") == "" ||
		len(pid) != 16 || !isHex(pid) || strings.Trim(pid, "0") == "" {
		return "", "", false, false
	}
	f, _ := hex.DecodeString(flags)
	return tid, pid, f[0]&0x01 != 0, true
}

// maxRequestIDLen bounds adopted X-Request-ID values so a hostile
// client cannot make the daemon log and retain megabyte "ids".
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

// RequestIDFromHeaders resolves the request id for one inbound
// request: a valid traceparent trace-id wins, then a sane
// X-Request-ID, then a freshly minted id. adopted reports whether the
// id came from the client.
func RequestIDFromHeaders(traceparent, xRequestID string) (id string, adopted bool) {
	if tid, _, _, ok := ParseTraceparent(traceparent); ok {
		return tid, true
	}
	if rid, ok := SanitizeRequestID(xRequestID); ok {
		return rid, true
	}
	return NewRequestID(), false
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
