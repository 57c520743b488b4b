package obs

import (
	"encoding/hex"
	"strings"
	"testing"
)

func TestNewRequestIDShape(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	for _, id := range []string{a, b} {
		if _, err := hex.DecodeString(id); len(id) != 32 || err != nil || strings.Trim(id, "0") == "" {
			t.Fatalf("id %q is not 32 non-zero hex chars", id)
		}
	}
	if a == b {
		t.Fatalf("two minted ids collided: %q", a)
	}
}
