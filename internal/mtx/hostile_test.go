package mtx

import (
	"errors"
	"strings"
	"testing"

	"bgpc/internal/limits"
)

// TestHostileDocsAllRejected pins the contract the load harness
// depends on: every hostile kind parses to an error under the default
// caps, split between header-peek rejections (admission-time) and
// body-parse rejections (worker-time), and the cap-violating kind
// carries limits.ErrTooLarge so the daemon answers 413, not 400.
func TestHostileDocsAllRejected(t *testing.T) {
	lim := limits.DefaultParseLimits()
	for _, kind := range HostileKinds() {
		doc, err := HostileDoc(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		_, peekErr := PeekInfo(doc, lim)
		if HostileRejectedAtHeader(kind) {
			if peekErr == nil {
				t.Fatalf("%s: header peek accepted a hostile header", kind)
			}
		} else if peekErr != nil {
			t.Fatalf("%s: header peek should pass (body-parse kind), got %v", kind, peekErr)
		}
		if _, err := ReadLimited(strings.NewReader(doc), lim); err == nil {
			t.Fatalf("%s: full parse accepted a hostile document", kind)
		}
	}

	doc, _ := HostileDoc(HostileHugeNNZ)
	_, err := PeekInfo(doc, lim)
	if !errors.Is(err, limits.ErrTooLarge) {
		t.Fatalf("huge-nnz peek error = %v, want limits.ErrTooLarge", err)
	}

	doc, _ = HostileDoc(HostileBadBanner)
	if _, err := PeekInfo(doc, lim); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad-banner peek error = %v, want ErrFormat", err)
	}
}

func TestHostileDocUnknownKind(t *testing.T) {
	if _, err := HostileDoc("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
