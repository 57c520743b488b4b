package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// NewRequestID mints a 32-hex-character random correlation id — the
// same shape as a W3C trace-id, and never all-zero, so a minted id is
// always a valid trace id and can be forwarded as one. Ingress
// resolution (adopting a client's traceparent or X-Request-ID) lives
// in internal/trace; the client (internal/client) sends one minted id
// on every retry of a logical call, which is what makes a retried
// attempt correlatable server-side.
func NewRequestID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil || b == [16]byte{} {
		// crypto/rand failing means the platform is broken; a fixed
		// (valid, non-zero) id keeps requests serviceable, just not
		// correlatable.
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(b[:])
}
