package obs

import (
	"strings"
	"testing"
)

func TestNewRequestIDShape(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	for _, id := range []string{a, b} {
		if len(id) != 32 || !isHex(id) {
			t.Fatalf("id %q is not 32 hex chars", id)
		}
	}
	if a == b {
		t.Fatalf("two minted ids collided: %q", a)
	}
}

func TestParseTraceparent(t *testing.T) {
	const validID = "4bf92f3577b34da6a3ce929d0e0e4736"
	cases := []struct {
		name string
		in   string
		want string
		ok   bool
	}{
		{"canonical", "00-" + validID + "-00f067aa0ba902b7-01", validID, true},
		{"surrounding space", "  00-" + validID + "-00f067aa0ba902b7-01  ", validID, true},
		{"uppercase id lowered", "00-" + strings.ToUpper(validID) + "-00f067aa0ba902b7-01", validID, true},
		{"future version", "cc-" + validID + "-00f067aa0ba902b7-01", validID, true},
		{"extra future fields", "cc-" + validID + "-00f067aa0ba902b7-01-extra", validID, true},
		{"empty", "", "", false},
		{"too few parts", "00-" + validID + "-01", "", false},
		{"version ff reserved", "ff-" + validID + "-00f067aa0ba902b7-01", "", false},
		{"non-hex version", "zz-" + validID + "-00f067aa0ba902b7-01", "", false},
		{"short trace id", "00-abc123-00f067aa0ba902b7-01", "", false},
		{"non-hex trace id", "00-" + strings.Repeat("g", 32) + "-00f067aa0ba902b7-01", "", false},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", "", false},
		{"short parent id", "00-" + validID + "-abc-01", "", false},
		{"all-zero parent id", "00-" + validID + "-0000000000000000-01", "", false},
		{"bad flags", "00-" + validID + "-00f067aa0ba902b7-0x", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, _, ok := ParseTraceparent(tc.in)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("ParseTraceparent(%q) = %q, %v; want %q, %v",
					tc.in, got, ok, tc.want, tc.ok)
			}
			// A header the parser rejects is never adopted as the id.
			if id, adopted := RequestIDFromHeaders(tc.in, ""); adopted != tc.ok || (tc.ok && id != tc.want) {
				t.Fatalf("RequestIDFromHeaders(%q) = %q, adopted=%v", tc.in, id, adopted)
			}
		})
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"plain", "abc-123_XYZ.7", true},
		{"max length", strings.Repeat("a", 128), true},
		{"empty", "", false},
		{"over length", strings.Repeat("a", 129), false},
		{"embedded space", "a b", false},
		{"double quote", `a"b`, false},
		{"backslash", `a\b`, false},
		{"newline", "a\nb", false},
		{"control char", "a\x01b", false},
		{"non-ascii", "idé", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := SanitizeRequestID(tc.in)
			if ok != tc.ok {
				t.Fatalf("SanitizeRequestID(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			}
			if ok && got != tc.in {
				t.Fatalf("sanitize mutated a valid id: %q -> %q", tc.in, got)
			}
		})
	}
}

// TestRequestIDFromHeadersPrecedence: traceparent beats X-Request-ID
// beats minting, and invalid client values fall through rather than
// being adopted.
func TestRequestIDFromHeadersPrecedence(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + tid + "-00f067aa0ba902b7-01"

	if id, adopted := RequestIDFromHeaders(tp, "client-id"); id != tid || !adopted {
		t.Fatalf("traceparent did not win: %q adopted=%v", id, adopted)
	}
	if id, adopted := RequestIDFromHeaders("", "client-id"); id != "client-id" || !adopted {
		t.Fatalf("X-Request-ID not adopted: %q adopted=%v", id, adopted)
	}
	if id, adopted := RequestIDFromHeaders("garbage", `bad"id`); adopted || len(id) != 32 {
		t.Fatalf("invalid headers must mint: %q adopted=%v", id, adopted)
	}
	if id, adopted := RequestIDFromHeaders("", ""); adopted || len(id) != 32 || !isHex(id) {
		t.Fatalf("no headers must mint: %q adopted=%v", id, adopted)
	}
}
